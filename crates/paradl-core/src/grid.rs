//! Amortized multi-query oracle: evaluate a whole configuration grid
//! (model × global batch × cluster) at near-single-query cost — and the
//! crate's one ranked-query driver.
//!
//! Every ranked answer is a grid sweep. [`GridSweep::run`] sweeps a
//! [`QueryGrid`]; [`Oracle::search`], a ranked [`Oracle::answer`] and
//! [`crate::query::Query::run`] run the same sweep as a one-cell grid on the
//! oracle's own engine. [`Oracle::search_reference`] is the independent
//! per-layer path the tests compare against. A sweep has two parts:
//!
//! 1. **engine acquisition** — one [`ClusterCache`] per cluster
//!    ([`std::sync::Arc`]-shared, so every engine on a cluster reuses its
//!    communication-model derivations) and one [`CostEngine`] per (model,
//!    cluster) pair, built fresh or hydrated from an [`EngineCache`]
//!    ([`GridSweep::run_cached`]); a one-cell answer skips this part and
//!    brings its own engine;
//! 2. **the sweep over prepared engines**, which amortizes everything
//!    shareable across cells:
//!
//! * **engines** — the batches of the grid get [`CostEngine::rebatch`]ed
//!   siblings of the pair's engine that share every batch-invariant table
//!   through the engine's `Arc`-held core (an engine already at a cell's
//!   batch is used as is),
//! * **candidate spaces** — one enumerated superset per model at the
//!   largest batch; each batch's space is an order-preserving `O(1)`-per-
//!   candidate filter of the superset (valid because every batch-dependent
//!   enumeration bound is also checked by [`ModelLimits::is_valid`], and
//!   validity is monotone in the batch, so each candidate resolves its
//!   validity once at the smallest admitting batch),
//! * **evaluation prep** — per-PE memory and the compute-only lower bound
//!   are cluster-independent given the device profile, so one
//!   structure-of-arrays prep pass per (model, batch, device) feeds every
//!   cluster cell sharing that device: the memory pruning, its counter, and
//!   the bound column are computed once instead of once per cell,
//! * **communication columns** — in top-k mode, one batch-invariant
//!   communication-coefficient row per superset candidate and (model,
//!   cluster) pair, from which the kernel reconstructs exact epoch times;
//!   full ranking never reads them, so it skips the stage,
//! * **reporting** — in top-k mode only the `k` best and the per-budget
//!   winners are reported, so they are folded incrementally instead of
//!   materializing the hundreds of thousands of costed candidates per cell,
//! * **parallelism** — evaluation is split into fixed-size candidate chunks
//!   interleaved round-robin across *all* cells and run rayon-parallel, so
//!   one huge query (a CosmoFlow-scale exhaustive space) doesn't serialize
//!   the sweep behind it, and per-cell serial phases (final ranking sort)
//!   run concurrently across cells,
//! * **analytic evaluation** — the chunks run through the
//!   [`crate::kernel`] module: a fused memory+bound prep pass
//!   ([`CostEngine::prep_terms`]), static dominance bounds seeded per cell
//!   (seed *selection* reuses the device-dependent prep columns across
//!   clusters; seed *times* are costed per cell because communication is
//!   cluster-dependent), a branchless pass over the exact epoch times, and
//!   incremental [`CostEngine::estimate_delta_with_memory`] chains in
//!   full-ranking mode. Which engine tables the delta path may reuse is
//!   documented in the `engine` module (batch-invariant vs batch-dependent
//!   — load-bearing, exactly as with [`CostEngine::rebatch`]).
//!
//! [`GridSweep::run_timed`] returns the per-stage wall-clock timings of a
//! sweep.
//!
//! The sweep is *exact*: every cell's [`SearchReport`] equals, field for
//! field, what [`Oracle::search`] returns at that cell's configuration —
//! rebatched engines are bit-equal to freshly built ones, the reduction is
//! order-independent, and the static `pruned_by_dominance` count is fixed
//! before the scan (`pruned_by_bound` is always 0). Property-tested in
//! `tests/proptest_grid.rs` across chunk sizes, with full-ranking cells
//! also checked against [`Oracle::search_reference`].
//!
//! [`Oracle::search`]: crate::oracle::Oracle::search
//! [`Oracle::answer`]: crate::oracle::Oracle::answer
//! [`Oracle::search_reference`]: crate::oracle::Oracle::search_reference
//! [`ModelLimits::is_valid`]: crate::engine::ModelLimits::is_valid

use crate::cluster::{ClusterCache, ClusterSpec};
use crate::compute::DeviceProfile;
use crate::config::TrainingConfig;
use crate::engine::{cluster_fingerprint, engine_fingerprint, CommCoef, CostEngine, EngineCache};
use crate::kernel::{eval_chunk_kernel, select_seeds, KernelColumns, StaticBounds, DEFAULT_CHUNK};
use crate::model::Model;
use crate::oracle::Constraints;
use crate::search::{
    budget_index, finish_report, finish_report_topk, RankedCandidate, SearchReport, SearchShared,
    StrategySpace,
};
use crate::strategy::Strategy;
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One model entry of a [`QueryGrid`]: the model plus its base training
/// configuration (dataset size, datum width, memory-reuse factor). The
/// grid's batch axis overrides `base.batch_size` per cell.
#[derive(Debug, Clone)]
pub struct GridModel {
    /// The CNN model.
    pub model: Model,
    /// Base training configuration; `batch_size` is replaced per grid cell.
    pub base: TrainingConfig,
}

impl GridModel {
    /// The cell configuration at global batch `batch`.
    pub fn config_at(&self, batch: usize) -> TrainingConfig {
        TrainingConfig { batch_size: batch, ..self.base }
    }
}

/// Coordinates of one grid cell: indices into the grid's model and cluster
/// axes plus the global batch *value* of the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridQuery {
    /// Index into [`QueryGrid::models`].
    pub model: usize,
    /// Index into [`QueryGrid::clusters`].
    pub cluster: usize,
    /// Global mini-batch size of this cell.
    pub batch: usize,
}

/// A batched set of oracle queries: the cross product of models (with their
/// base configurations), global batch sizes, and clusters, all searched
/// under one [`Constraints`]. Build with the `with_*` methods, evaluate with
/// a [`GridSweep`].
///
/// Each cluster's [`ClusterSpec::device`] profile provides the per-layer
/// compute times for the cells on that cluster.
#[derive(Debug, Clone)]
pub struct QueryGrid {
    models: Vec<GridModel>,
    batches: Vec<usize>,
    clusters: Vec<ClusterSpec>,
    constraints: Constraints,
}

impl QueryGrid {
    /// An empty grid evaluated under `constraints`.
    pub fn new(constraints: Constraints) -> Self {
        QueryGrid { models: Vec::new(), batches: Vec::new(), clusters: Vec::new(), constraints }
    }

    /// Adds a model with its base training configuration (the grid's batch
    /// axis overrides `base.batch_size`).
    pub fn with_model(mut self, model: Model, base: TrainingConfig) -> Self {
        self.models.push(GridModel { model, base });
        self
    }

    /// Adds global batch sizes to the batch axis.
    pub fn with_batches(mut self, batches: impl IntoIterator<Item = usize>) -> Self {
        self.batches.extend(batches);
        self
    }

    /// Adds a cluster (its [`ClusterSpec::device`] provides the compute
    /// model for the cells on it).
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.clusters.push(cluster);
        self
    }

    /// The model axis.
    pub fn models(&self) -> &[GridModel] {
        &self.models
    }

    /// The global-batch axis.
    pub fn batches(&self) -> &[usize] {
        &self.batches
    }

    /// The cluster axis.
    pub fn clusters(&self) -> &[ClusterSpec] {
        &self.clusters
    }

    /// The shared search constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// Number of cells (`models × batches × clusters`).
    pub fn num_queries(&self) -> usize {
        self.models.len() * self.batches.len() * self.clusters.len()
    }

    /// The cell coordinates in evaluation order: model-major, then batch,
    /// then cluster — the order of [`GridReport::cells`].
    pub fn queries(&self) -> Vec<GridQuery> {
        let mut out = Vec::with_capacity(self.num_queries());
        for m in 0..self.models.len() {
            for &batch in &self.batches {
                for c in 0..self.clusters.len() {
                    out.push(GridQuery { model: m, cluster: c, batch });
                }
            }
        }
        out
    }
}

/// One evaluated grid cell.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The cell's coordinates.
    pub query: GridQuery,
    /// The cell's search result — identical to what a per-query
    /// [`Oracle::search`](crate::oracle::Oracle::search) at this configuration returns.
    pub report: SearchReport,
}

/// The result of a grid sweep: one [`GridCell`] per query, in
/// [`QueryGrid::queries`] order.
#[derive(Debug, Clone)]
pub struct GridReport {
    /// Evaluated cells (model-major, then batch, then cluster).
    pub cells: Vec<GridCell>,
}

impl GridReport {
    /// Number of evaluated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the report has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell for (model index, batch value, cluster index), if present.
    pub fn get(&self, model: usize, batch: usize, cluster: usize) -> Option<&GridCell> {
        self.cells.iter().find(|c| {
            c.query.model == model && c.query.batch == batch && c.query.cluster == cluster
        })
    }

    /// Per-cell winner extraction: the `n` fastest ranked candidates of
    /// every cell (fewer where the ranking is shorter), in cell order.
    /// Cells where nothing was feasible yield an empty slice. This is the
    /// list a conformance harness replays through a measurement source to
    /// build a [`crate::validate::FidelityReport`].
    pub fn winners(&self, n: usize) -> Vec<(GridQuery, &[RankedCandidate])> {
        self.cells.iter().map(|c| (c.query, c.report.top(n))).collect()
    }
}

/// Per-(model, batch, device) evaluation tables, shared by every cell whose
/// cluster carries that device profile: the filtered candidate count, the
/// memory-pruned count, and the memory-feasible candidates as
/// structure-of-arrays columns (strategy, per-PE memory, compute-only lower
/// bound) in deterministic enumeration order. Per-PE memory is
/// cluster-independent and the lower bound only depends on the device, so
/// one prep pass — enumeration filter, memory pruning, bound tabulation —
/// serves every cluster sharing the device instead of being repeated per
/// cell.
#[derive(Default)]
struct PreppedSpace {
    /// Candidates enumerated for this (model, batch) under the constraints.
    enumerated: usize,
    /// Of those, how many the memory-capacity check removed.
    mem_pruned: usize,
    /// Memory-feasible candidates, in enumeration order.
    cands: Vec<Strategy>,
    /// Per-PE memory column, aligned with `cands`.
    mems: Vec<f64>,
    /// Compute-only lower-bound column, aligned with `cands`.
    lbs: Vec<f64>,
    /// PE-budget slot column (`budget_index` of each candidate, ≤ 64 so it
    /// fits a byte), aligned with `cands`.
    slots: Vec<u8>,
    /// Seed-panel indices into `cands` (per-(family, slot) lower-bound
    /// minima; device-dependent but cluster-independent, so selected once
    /// per prep and costed per cell).
    seeds: Vec<usize>,
    /// Superset index of each feasible candidate (`cands[i]` is
    /// `superset[sup[i]]`), linking the prep rows to the per-(model,
    /// cluster) communication-coefficient columns.
    sup: Vec<u32>,
    /// Strategy-family byte per candidate ([`crate::strategy::StrategyKind`]
    /// as `u8`) — the kernel's communication dispatch, so the hot loop
    /// never decodes the strategy column.
    fams: Vec<u8>,
}

impl PreppedSpace {
    /// Builds the prep tables of one (model, device) for *every* batch of
    /// the grid in a single superset pass: candidate validity is monotone in
    /// the batch (every batch-dependent bound is a `≤ batch` comparison), so
    /// each candidate's validity is resolved once at the smallest admitting
    /// batch instead of being re-checked per batch. `base` is any engine of
    /// the (model, device) pair; per-batch siblings are rebatched from it.
    ///
    /// Memory and the lower bound come from the fused
    /// [`CostEngine::prep_terms`] pass, the budget-slot and seed-panel
    /// columns for the kernel are tabulated alongside, and — for the
    /// non-pipeline families, whose per-PE memory is provably nondecreasing
    /// in the batch (`2·batch·act/div + const`) — a candidate that exceeds
    /// the capacity at one batch skips the memory computation at every
    /// larger batch (it still counts as enumerated and memory-pruned
    /// there, so the accounting is unchanged).
    fn build_all(
        superset: &[Strategy],
        base: &CostEngine<'_>,
        batches: &[usize],
        constraints: &Constraints,
    ) -> Vec<PreppedSpace> {
        let limits = base.limits();
        let engines: Vec<Cow<'_, CostEngine<'_>>> =
            batches.iter().map(|&b| at_batch(base, b)).collect();
        let mut preps: Vec<PreppedSpace> = batches.iter().map(|_| Default::default()).collect();
        // Ascending batch order: validity at one batch implies validity at
        // every larger one.
        let mut order: Vec<usize> = (0..batches.len()).collect();
        order.sort_by_key(|&i| batches[i]);
        for (si, &strategy) in superset.iter().enumerate() {
            let mut j = 0;
            while j < order.len() && !limits.is_valid(strategy, batches[order[j]]) {
                j += 1;
            }
            let slot = budget_index(strategy.total_pes()) as u8;
            let fam = strategy.kind() as u8;
            // Pipeline memory is a per-depth table, not the shared
            // `2·batch·act + const` form, so the monotone early-break only
            // applies to the other families.
            let monotone = !matches!(strategy, Strategy::Pipeline { .. });
            let mut infeasible = false;
            for &bi in &order[j..] {
                let prep = &mut preps[bi];
                prep.enumerated += 1;
                if infeasible {
                    continue;
                }
                let (mem, lb) = engines[bi].prep_terms(strategy);
                if mem > constraints.memory_capacity_bytes {
                    infeasible = monotone;
                    continue;
                }
                prep.cands.push(strategy);
                prep.mems.push(mem);
                prep.lbs.push(lb);
                prep.slots.push(slot);
                prep.sup.push(si as u32);
                prep.fams.push(fam);
            }
        }
        let n_slots = budget_index(constraints.max_pes.max(1)) + 1;
        for prep in &mut preps {
            prep.mem_pruned = prep.enumerated - prep.cands.len();
            prep.seeds = select_seeds(&prep.cands, &prep.lbs, &prep.slots, n_slots);
        }
        preps
    }
}

/// `engine` at global batch `batch`: borrowed when it already sits there,
/// a [`CostEngine::rebatched`] sibling otherwise (bit-equal either way).
fn at_batch<'e, 'a>(engine: &'e CostEngine<'a>, batch: usize) -> Cow<'e, CostEngine<'a>> {
    if engine.config().batch_size == batch {
        Cow::Borrowed(engine)
    } else {
        Cow::Owned(engine.rebatched(batch))
    }
}

/// One in-flight cell of a sweep.
struct CellCtx<'e, 'a> {
    query: GridQuery,
    engine: Cow<'e, CostEngine<'a>>,
    prep: &'e PreppedSpace,
    shared: SearchShared,
    /// Static dominance-prune bounds derived from the prep's seed panel
    /// through this cell's engine.
    bounds: StaticBounds,
    /// Survivor accumulator (full-ranking mode, `top_k == None`).
    found: Mutex<Vec<RankedCandidate>>,
    /// Per-budget-slot running winners (top-k mode).
    winners: Vec<Mutex<Option<RankedCandidate>>>,
}

/// Per-stage wall-clock seconds of one [`GridSweep::run_timed`] sweep,
/// reported by `bench_kernel_summary` so the kernel's per-stage trajectory
/// (prep, evaluation) is visible next to the end-to-end number.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridStageTimings {
    /// Cluster topology-cache derivation.
    pub caches: f64,
    /// Candidate-superset enumeration (one per model).
    pub supersets: f64,
    /// Engine builds (one per model × cluster).
    pub engines: f64,
    /// SoA prep passes (enumeration filter, memory pruning, bound/slot
    /// tabulation, seed selection).
    pub preps: f64,
    /// Batch-invariant communication-coefficient columns (one per
    /// model × cluster pair; top-k sweeps only).
    pub comms: f64,
    /// Cell-context assembly (rebatched engines, static bounds).
    pub cells: f64,
    /// Chunked candidate evaluation — the kernel hot loop.
    pub eval: f64,
    /// Final per-cell ranking and report assembly.
    pub finish: f64,
}

/// Lap timer behind [`GridStageTimings`]: each call returns the seconds
/// since the previous one.
struct Laps(Instant);

impl Laps {
    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let elapsed = (now - self.0).as_secs_f64();
        self.0 = now;
        elapsed
    }
}

/// Evaluates a [`QueryGrid`], amortizing engines, topology caches and
/// candidate enumeration across cells (see the [module docs](crate::grid)).
#[derive(Debug, Clone)]
pub struct GridSweep {
    /// Candidates per work unit of the interleaved evaluation.
    chunk: usize,
}

impl Default for GridSweep {
    fn default() -> Self {
        GridSweep::new()
    }
}

impl GridSweep {
    /// A sweep with the default work-splitting granularity, picked by the
    /// chunk sweep in `BENCH_kernel.json`: small enough that a paper-scale
    /// query splits into many units, large enough that chunk dispatch and
    /// mask-pass overhead stay negligible.
    pub fn new() -> Self {
        GridSweep { chunk: DEFAULT_CHUNK }
    }

    /// Overrides the candidates-per-chunk granularity (clamped to ≥ 1).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Evaluates every cell of `grid`, returning one [`SearchReport`] per
    /// cell in [`QueryGrid::queries`] order — each identical to what
    /// [`Oracle::search`](crate::oracle::Oracle::search) returns for that cell.
    pub fn run(&self, grid: &QueryGrid) -> GridReport {
        self.run_with(grid, None).0
    }

    /// Like [`GridSweep::run`], but also returns per-stage wall-clock
    /// timings (used by `bench_kernel_summary` to report the prep/eval
    /// split of the kernel trajectory).
    pub fn run_timed(&self, grid: &QueryGrid) -> (GridReport, GridStageTimings) {
        self.run_with(grid, None)
    }

    /// Like [`GridSweep::run`], but sourcing engine cores and cluster caches
    /// from (and contributing them back to) an [`EngineCache`], so *repeated*
    /// sweeps over the same (model, device, cluster, γ·δ) problems skip the
    /// engine builds entirely — the cross-request amortization behind the
    /// `paradl-serve` daemon. Exactly the same results as [`GridSweep::run`]:
    /// a hydrated engine is byte-for-byte identical to a fresh build
    /// ([`CostEngine::from_core`]).
    pub fn run_cached(&self, grid: &QueryGrid, cache: &EngineCache) -> GridReport {
        self.run_with(grid, Some(cache)).0
    }

    /// One ranked query as a one-cell sweep on the caller's engine — the
    /// ranked arm of
    /// [`Oracle::answer_with_engine`](crate::oracle::Oracle::answer_with_engine).
    /// Nothing is built and nothing rebatched: the cell's candidates are
    /// enumerated at the engine's own batch.
    pub(crate) fn run_one(
        &self,
        engine: &CostEngine<'_>,
        constraints: &Constraints,
    ) -> SearchReport {
        let mut timings = GridStageTimings::default();
        let mut cells = self.sweep(
            std::slice::from_ref(engine),
            &[0],
            &[engine.config().batch_size],
            constraints,
            &mut Laps(Instant::now()),
            &mut timings,
        );
        cells.pop().expect("a one-cell sweep yields one cell").report
    }

    /// Engine acquisition — shared topology caches and one engine per
    /// (model, cluster) pair at the grid's largest batch, from `ecache`
    /// when one is supplied — followed by the sweep over those engines.
    fn run_with(
        &self,
        grid: &QueryGrid,
        ecache: Option<&EngineCache>,
    ) -> (GridReport, GridStageTimings) {
        let mut timings = GridStageTimings::default();
        if grid.num_queries() == 0 {
            return (GridReport { cells: Vec::new() }, timings);
        }
        let mut laps = Laps(Instant::now());
        let n_clusters = grid.clusters.len();
        let max_batch = *grid.batches.iter().max().expect("non-empty batch axis");

        // Shared per-cluster topology caches, sourced from the engine cache
        // when one is supplied (the cache stores models, not times, so the
        // derived engines are identical either way).
        let caches: Vec<Arc<ClusterCache>> = grid
            .clusters
            .iter()
            .map(|c| match ecache {
                Some(ec) => ec.cluster(cluster_fingerprint(c), || Arc::new(ClusterCache::new(c))),
                None => Arc::new(ClusterCache::new(c)),
            })
            .collect();
        timings.caches = laps.lap();

        // One engine per (model, cluster) pair, sharing the cluster caches;
        // every batch of the grid reuses the pair's batch-invariant core.
        let engines: Vec<CostEngine<'_>> = (0..grid.models.len() * n_clusters)
            .into_par_iter()
            .map(|i| {
                let (m, c) = (i / n_clusters, i % n_clusters);
                let gm = &grid.models[m];
                let cluster = &grid.clusters[c];
                let config = gm.config_at(max_batch);
                let build = || {
                    CostEngine::with_cache(&gm.model, &cluster.device, cluster, config, &caches[c])
                        .expect("grid engine build failed")
                };
                // The grid's workloads are vetted/curated upstream; an
                // unbuildable engine here is a caller bug, not a request.
                match ecache {
                    Some(ec) => {
                        let key = engine_fingerprint(&gm.model, cluster, &gm.base);
                        let core = ec.core(key, || build().core_handle());
                        CostEngine::from_core(&gm.model, cluster, config, core)
                            .expect("grid engine hydration failed")
                    }
                    None => build(),
                }
            })
            .collect();
        timings.engines = laps.lap();

        // Group clusters by device profile: per-PE memory and the compute
        // lower bound are cluster-independent given the device, so one prep
        // pass per (model, batch, device) serves every cluster in the group.
        let mut devices: Vec<&DeviceProfile> = Vec::new();
        let group_of: Vec<usize> = grid
            .clusters
            .iter()
            .map(|cluster| {
                devices.iter().position(|&d| *d == cluster.device).unwrap_or_else(|| {
                    devices.push(&cluster.device);
                    devices.len() - 1
                })
            })
            .collect();

        let cells = self.sweep(
            &engines,
            &group_of,
            &grid.batches,
            &grid.constraints,
            &mut laps,
            &mut timings,
        );
        (GridReport { cells }, timings)
    }

    /// The sweep over prepared engines. `engines` holds one engine per
    /// (model, cluster) pair, model-major, at any batch; `group_of[c]` is
    /// the device group of cluster `c` (clusters of one group share the
    /// prep tables). Returns the cells model-major, then batch, then
    /// cluster — [`QueryGrid::queries`] order — and records the stages from
    /// `supersets` on.
    fn sweep(
        &self,
        engines: &[CostEngine<'_>],
        group_of: &[usize],
        batches: &[usize],
        constraints: &Constraints,
        laps: &mut Laps,
        timings: &mut GridStageTimings,
    ) -> Vec<GridCell> {
        let n_clusters = group_of.len();
        let n_models = engines.len() / n_clusters;
        let n_groups = group_of.iter().max().map_or(0, |&g| g + 1);
        let group_reps: Vec<usize> = (0..n_groups)
            .map(|g| group_of.iter().position(|&x| x == g).expect("groups are dense"))
            .collect();
        let max_batch = *batches.iter().max().expect("non-empty batch axis");

        // One candidate superset per model, enumerated at the largest
        // batch; models enumerate in parallel.
        let supersets: Vec<Vec<Strategy>> = (0..n_models)
            .into_par_iter()
            .map(|m| {
                let limits = engines[m * n_clusters].limits();
                StrategySpace::with_limits(max_batch, constraints, limits).into_vec()
            })
            .collect();
        timings.supersets = laps.lap();

        // Per-(model, device) prepped spaces covering the whole batch axis:
        // one superset pass enumerates, memory-prunes and bound-tabulates
        // every batch's candidates.
        let preps: Vec<Vec<PreppedSpace>> = (0..n_models * n_groups)
            .into_par_iter()
            .map(|i| {
                let (m, g) = (i / n_groups, i % n_groups);
                let engine = &engines[m * n_clusters + group_reps[g]];
                PreppedSpace::build_all(&supersets[m], engine, batches, constraints)
            })
            .collect();
        timings.preps = laps.lap();

        // Per-(model, cluster) communication columns, aligned with the
        // model's candidate superset: the batch-invariant parts of every
        // candidate's communication time (collective times, link
        // parameters — the dominant per-candidate cost) are tabulated once
        // per pair instead of being re-derived in every batch's cell. Rows
        // no batch's prep references (invalid or memory-infeasible at every
        // batch) are skipped. Full ranking costs every candidate through
        // the delta chain and never reads the columns.
        let coefs: Vec<Vec<CommCoef>> = if constraints.top_k.is_some() {
            let used: Vec<Vec<bool>> = (0..n_models * n_groups)
                .map(|i| {
                    let mut used = vec![false; supersets[i / n_groups].len()];
                    for prep in &preps[i] {
                        for &si in &prep.sup {
                            used[si as usize] = true;
                        }
                    }
                    used
                })
                .collect();
            (0..n_models * n_clusters)
                .into_par_iter()
                .map(|i| {
                    let (m, c) = (i / n_clusters, i % n_clusters);
                    let engine = &engines[i];
                    supersets[m]
                        .iter()
                        .zip(&used[m * n_groups + group_of[c]])
                        .map(|(&s, &u)| if u { engine.comm_prep(s) } else { CommCoef::default() })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        timings.comms = laps.lap();

        // Cell contexts: the engine at the cell's batch plus the shared
        // search state each cell's chunks reduce into. The memory-pruned
        // count is seeded from the prep; the static dominance bounds cost
        // the prep's seed panel through the cell's own engine
        // (communication is cluster-dependent, so seed *times* are per cell
        // even though seed *selection* is per prep).
        let mut cells: Vec<CellCtx<'_, '_>> =
            Vec::with_capacity(n_models * batches.len() * n_clusters);
        for m in 0..n_models {
            for (b, &batch) in batches.iter().enumerate() {
                for c in 0..n_clusters {
                    let prep = &preps[m * n_groups + group_of[c]][b];
                    let shared = SearchShared::new(constraints);
                    shared.set_memory_pruned(prep.mem_pruned);
                    let winners =
                        (0..shared.num_budget_slots()).map(|_| Mutex::new(None)).collect();
                    let engine = at_batch(&engines[m * n_clusters + c], batch);
                    let bounds = StaticBounds::from_seeds(
                        &engine,
                        &prep.cands,
                        &prep.lbs,
                        &prep.slots,
                        &prep.seeds,
                        &shared,
                    );
                    cells.push(CellCtx {
                        query: GridQuery { model: m, cluster: c, batch },
                        engine,
                        prep,
                        shared,
                        bounds,
                        found: Mutex::new(Vec::new()),
                        winners,
                    });
                }
            }
        }
        timings.cells = laps.lap();

        // Candidate-level work splitting: fixed-size chunks, interleaved
        // round-robin across cells so a huge cell spreads over all workers
        // instead of pinning one. Round-robin also runs every cell's
        // lowest-bound chunk first, tightening the pruning thresholds before
        // the (wholesale-prunable) tails are touched.
        let chunk = self.chunk;
        let mut items: Vec<(usize, usize)> = Vec::new();
        let mut round = 0usize;
        loop {
            let mut any = false;
            for (ci, cell) in cells.iter().enumerate() {
                if round * chunk < cell.prep.cands.len() {
                    items.push((ci, round));
                    any = true;
                }
            }
            if !any {
                break;
            }
            round += 1;
        }
        let _: Vec<()> = items
            .par_iter()
            .map(|&(ci, round)| {
                let cell = &cells[ci];
                let lo = round * chunk;
                let hi = (lo + chunk).min(cell.prep.cands.len());
                eval_chunk_kernel(
                    &cell.engine,
                    KernelColumns {
                        cands: &cell.prep.cands,
                        mems: &cell.prep.mems,
                        lbs: &cell.prep.lbs,
                        slots: &cell.prep.slots,
                        sup: &cell.prep.sup,
                        fams: &cell.prep.fams,
                        coef: coefs
                            .get(cell.query.model * n_clusters + cell.query.cluster)
                            .map_or(&[][..], Vec::as_slice),
                    },
                    &cell.bounds,
                    lo,
                    hi,
                    constraints,
                    &cell.shared,
                    &cell.winners,
                    &cell.found,
                );
            })
            .collect();
        timings.eval = laps.lap();

        // Per-cell final ranking, in parallel across cells.
        let cells: Vec<GridCell> = cells
            .into_par_iter()
            .map(|cell| {
                let report = if constraints.top_k.is_some() {
                    let slot_best = cell
                        .winners
                        .into_iter()
                        .map(|slot| slot.into_inner().expect("winner slot poisoned"))
                        .collect();
                    finish_report_topk(cell.prep.enumerated, slot_best, constraints, cell.shared)
                } else {
                    let survivors = cell.found.into_inner().expect("grid accumulator poisoned");
                    finish_report(cell.prep.enumerated, survivors, constraints, cell.shared)
                };
                GridCell { query: cell.query, report }
            })
            .collect();
        timings.finish = laps.lap();
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ModelLimits;
    use crate::layer::Layer;
    use crate::oracle::{Oracle, PeSweep};

    fn model(seed: usize) -> Model {
        Model::new(
            format!("m{seed}"),
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 32 + 16 * seed, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 32 + 16 * seed, (32, 32), 2, 2),
                Layer::conv2d("c2", 32 + 16 * seed, 64, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 64, &[16, 16]),
                Layer::fully_connected("fc", 64, 10),
            ],
        )
    }

    fn small_grid(constraints: Constraints) -> QueryGrid {
        QueryGrid::new(constraints)
            .with_model(model(0), TrainingConfig::small(8192, 64))
            .with_model(model(1), TrainingConfig::small(4096, 64))
            .with_batches([32usize, 64, 96])
            .with_cluster(ClusterSpec::paper_system())
            .with_cluster(ClusterSpec::workstation(8))
    }

    fn assert_reports_equal(a: &SearchReport, b: &SearchReport, what: &str) {
        assert_eq!(a.enumerated, b.enumerated, "{what}: enumerated");
        assert_eq!(a.pruned_by_memory, b.pruned_by_memory, "{what}: memory-pruned");
        assert_eq!(a.pruned_by_dominance, b.pruned_by_dominance, "{what}: dominance-pruned");
        assert_eq!(a.ranked.len(), b.ranked.len(), "{what}: ranked length");
        for (x, y) in a.ranked.iter().zip(&b.ranked) {
            assert_eq!(x.strategy, y.strategy, "{what}: ranked strategy");
            assert_eq!(x.projection, y.projection, "{what}: ranked projection");
        }
        assert_eq!(a.best_per_budget.len(), b.best_per_budget.len(), "{what}: budgets");
        for (x, y) in a.best_per_budget.iter().zip(&b.best_per_budget) {
            assert_eq!(x.max_pes, y.max_pes, "{what}: budget");
            assert_eq!(x.candidate.strategy, y.candidate.strategy, "{what}: budget winner");
            assert_eq!(x.candidate.projection, y.candidate.projection, "{what}: budget proj");
        }
    }

    #[test]
    fn filtered_superset_equals_direct_enumeration() {
        for sweep in [PeSweep::PowersOfTwo, PeSweep::Exhaustive] {
            let constraints =
                Constraints { max_pes: 256, sweep, pipeline_segments: 16, ..Default::default() };
            let m = model(0);
            let limits = ModelLimits::of(&m);
            let max_batch = 96;
            let superset: Vec<Strategy> =
                StrategySpace::with_limits(max_batch, &constraints, &limits).into_vec();
            for batch in [17usize, 32, 64, 96] {
                let filtered: Vec<Strategy> =
                    superset.iter().copied().filter(|&s| limits.is_valid(s, batch)).collect();
                let direct: Vec<Strategy> =
                    StrategySpace::with_limits(batch, &constraints, &limits).into_vec();
                assert_eq!(filtered, direct, "sweep {sweep:?}, batch {batch}");
            }
        }
    }

    /// Per-cell [`Oracle::search`](crate::oracle::Oracle::search) on fresh oracles: each cell's own
    /// engine build and one-cell sweep.
    fn per_query(grid: &QueryGrid) -> Vec<SearchReport> {
        grid.queries()
            .into_iter()
            .map(|q| {
                let gm = &grid.models[q.model];
                let cluster = &grid.clusters[q.cluster];
                Oracle::new(&gm.model, &cluster.device, cluster, gm.config_at(q.batch))
                    .search(&grid.constraints)
            })
            .collect()
    }

    #[test]
    fn sweep_matches_per_query_search() {
        let grid = small_grid(Constraints { max_pes: 256, ..Default::default() });
        let fast = GridSweep::new().with_chunk_size(64).run(&grid); // force many chunks
        let slow = per_query(&grid);
        assert_eq!(fast.len(), grid.num_queries());
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.cells.iter().zip(&slow) {
            assert_reports_equal(&a.report, b, &format!("{:?}", a.query));
        }
    }

    #[test]
    fn sweep_matches_per_query_search_with_pruning() {
        let grid = small_grid(Constraints {
            max_pes: 256,
            top_k: Some(7),
            sweep: PeSweep::Exhaustive,
            ..Default::default()
        });
        let sweep = GridSweep::new().with_chunk_size(128);
        let fast = sweep.run(&grid);
        let slow = per_query(&grid);
        for (a, b) in fast.cells.iter().zip(&slow) {
            assert_reports_equal(&a.report, b, &format!("{:?}", a.query));
        }
        // The kernel's static prune accounting is deterministic: two runs
        // report the same dominance count, and the dynamic bound counter
        // stays zero.
        let again = sweep.run(&grid);
        for (a, b) in fast.cells.iter().zip(&again.cells) {
            assert_eq!(a.report.pruned_by_bound, 0, "the kernel counts no dynamic prunes");
            assert_eq!(
                a.report.pruned_by_dominance, b.report.pruned_by_dominance,
                "dominance count must be deterministic at {:?}",
                a.query
            );
            assert_eq!(
                a.report.evaluated() + a.report.pruned(),
                a.report.enumerated,
                "kernel accounting must add up at {:?}",
                a.query
            );
        }
    }

    #[test]
    fn cached_sweep_matches_uncached_and_hits_on_repeat() {
        let grid = small_grid(Constraints { max_pes: 256, top_k: Some(5), ..Default::default() });
        let sweep = GridSweep::new();
        let cache = EngineCache::new(16);
        let plain = sweep.run(&grid);
        let cached = sweep.run_cached(&grid, &cache);
        for (a, b) in plain.cells.iter().zip(&cached.cells) {
            assert_eq!(a.query, b.query);
            assert_reports_equal(&a.report, &b.report, &format!("cold {:?}", a.query));
        }
        let first = cache.stats();
        assert!(first.misses > 0, "cold sweep must populate the cache");
        // A second sweep over the same grid hits for every engine and
        // cluster cache, and still produces identical reports.
        let warm = sweep.run_cached(&grid, &cache);
        let second = cache.stats();
        assert_eq!(second.misses, first.misses, "warm sweep must not rebuild");
        assert!(second.hits > first.hits, "warm sweep must hit");
        for (a, b) in plain.cells.iter().zip(&warm.cells) {
            assert_reports_equal(&a.report, &b.report, &format!("warm {:?}", a.query));
        }
    }

    #[test]
    fn cells_follow_query_order_and_get_finds_them() {
        let grid = small_grid(Constraints { max_pes: 64, ..Default::default() });
        let report = GridSweep::new().run(&grid);
        let queries = grid.queries();
        assert_eq!(report.len(), queries.len());
        for (cell, q) in report.cells.iter().zip(&queries) {
            assert_eq!(cell.query, *q);
        }
        let found = report.get(1, 96, 1).expect("cell exists");
        assert_eq!(found.query, GridQuery { model: 1, cluster: 1, batch: 96 });
        assert!(report.get(2, 96, 1).is_none());
        assert!(!report.is_empty());
    }

    #[test]
    fn empty_grid_yields_empty_report() {
        let grid = QueryGrid::new(Constraints::default());
        assert_eq!(grid.num_queries(), 0);
        let report = GridSweep::new().run(&grid);
        assert!(report.is_empty());
        // A grid missing just one axis is also empty.
        let no_batches = QueryGrid::new(Constraints::default())
            .with_model(model(0), TrainingConfig::small(1024, 32))
            .with_cluster(ClusterSpec::paper_system());
        assert_eq!(no_batches.num_queries(), 0);
        assert!(GridSweep::new().run(&no_batches).is_empty());
    }
}
