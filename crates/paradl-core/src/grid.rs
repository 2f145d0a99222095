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
//! 1. **engine acquisition** — one [`CostEngine`] per (model, cluster)
//!    pair, either built fresh with [`CostEngine::new`] or taken from
//!    [`EngineCache::engine`] ([`GridSweep::run_cached`], which fails with
//!    the [`EngineError`] of an unbuildable engine instead of sweeping); a
//!    one-cell answer skips this part and brings its own engine;
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
//!   the bound column are computed once instead of once per cell. A prep
//!   row keeps only what the kernel reads for every candidate — superset
//!   index, bound, budget slot and family byte: the strategy is resolved
//!   through the superset index, and memory is checked but not stored (it
//!   is recomputed, bit-identically, only where an estimate is built),
//! * **communication columns** — in top-k mode, one batch-invariant
//!   communication-coefficient row per superset candidate and (model,
//!   cluster) pair, which the kernel prices into exact epoch times with
//!   the engine's one communication formula; full ranking builds a fresh
//!   [`CostEngine::estimate`] per candidate instead, so it skips the stage,
//! * **reporting** — every chunk returns its own results: in top-k mode
//!   only its `k` best and its best candidate per PE-budget slot, so a cell
//!   never materializes the hundreds of thousands of costed candidates it
//!   scans. The sweep merges a cell's chunk results and ranks them once,
//! * **parallelism** — evaluation is split into fixed-size candidate chunks
//!   interleaved round-robin across *all* cells and run rayon-parallel, so
//!   one huge query (a CosmoFlow-scale exhaustive space) doesn't serialize
//!   the sweep behind it, and per-cell serial phases (final ranking sort)
//!   run concurrently across cells; the per-model stages and the chunks
//!   are handed to workers as they free up, costliest first, so a sweep's
//!   wall time does not depend on the order of the grid's axes,
//! * **analytic evaluation** — the chunks run through the
//!   [`crate::kernel`] module: a fused memory+bound prep pass
//!   ([`CostEngine::prep_terms`]), static dominance bounds seeded per cell
//!   (seed *selection* reuses the device-dependent prep columns across
//!   clusters; seed *times* are costed per cell because communication is
//!   cluster-dependent, and are priced from the cell's coefficient
//!   column), a branchless pass over the exact epoch times, and one fresh
//!   [`CostEngine::estimate`] per candidate in full-ranking mode. Both
//!   modes price communication with the same per-family formula, so their
//!   epoch times agree bit for bit.
//!
//! [`GridSweep::run_timed`] returns the per-stage wall-clock timings of a
//! sweep.
//!
//! A [`GridSweep`] keeps the column buffers of its last run — the per-model
//! supersets, the per-(model, device) prep columns and the per-(model,
//! cluster) communication columns — and its next run refills them in
//! place, so a repeated sweep does not allocate and page-fault its working
//! set again (≈ 160 MiB for the 72-cell paper grid). Nothing is cached:
//! every run recomputes every value, only the capacity is reused. Each
//! stage trims the columns it fills to their exact length, so the kept
//! bytes never exceed what the last run held live. A run that finds the
//! buffers busy (another thread sweeping on the same value) uses fresh ones;
//! a clone starts with none, and dropping the sweep frees them. One-cell
//! answers ([`Oracle::search`], [`crate::query::Query::run`]) sweep on fresh
//! buffers, and the `paradl-serve` daemon builds a sweep per drained batch,
//! so neither holds buffers between requests.
//!
//! The sweep is *exact*: every cell's [`SearchReport`] equals, field for
//! field, what [`Oracle::search`] returns at that cell's configuration —
//! rebatched engines are bit-equal to freshly built ones, each chunk's
//! result depends on its rows alone and the merge ranks by a total order,
//! and the static `pruned_by_dominance` count is fixed before the scan
//! (`pruned_by_bound` is always 0). Property-tested in
//! `tests/proptest_grid.rs` across chunk sizes, with full-ranking cells
//! also checked against [`Oracle::search_reference`].
//!
//! [`Oracle::search`]: crate::oracle::Oracle::search
//! [`Oracle::answer`]: crate::oracle::Oracle::answer
//! [`Oracle::search_reference`]: crate::oracle::Oracle::search_reference
//! [`ModelLimits::is_valid`]: crate::engine::ModelLimits::is_valid

use crate::cluster::ClusterSpec;
use crate::compute::DeviceProfile;
use crate::config::TrainingConfig;
use crate::engine::{CommCoef, CostEngine, EngineCache, EngineError};
use crate::kernel::{eval_chunk_kernel, select_seeds, KernelColumns, StaticBounds, DEFAULT_CHUNK};
use crate::model::Model;
use crate::oracle::Constraints;
use crate::search::{budget_index, finish_report, RankedCandidate, SearchReport, StrategySpace};
use crate::strategy::Strategy;
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
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
/// structure-of-arrays columns (superset index, compute-only lower bound,
/// budget slot, family byte) in deterministic enumeration order. A row's
/// strategy is `superset[sup[i]]` of the model's candidate superset; per-PE
/// memory is checked against the capacity here but not stored — the kernel
/// recomputes it only for the few candidates whose full estimate it builds.
/// Per-PE memory is cluster-independent and the lower bound only depends on
/// the device, so one prep pass — enumeration filter, memory pruning, bound
/// tabulation — serves every cluster sharing the device instead of being
/// repeated per cell.
#[derive(Default)]
struct PreppedSpace {
    /// Candidates enumerated for this (model, batch) under the constraints.
    enumerated: usize,
    /// Of those, how many the memory-capacity check removed.
    mem_pruned: usize,
    /// Superset index of each memory-feasible candidate, in enumeration
    /// order: row `i` is `superset[sup[i]]`, and the index also addresses
    /// the per-(model, cluster) communication-coefficient column.
    sup: Vec<u32>,
    /// Compute-only lower-bound column, aligned with `sup`.
    lbs: Vec<f64>,
    /// PE-budget slot column (`budget_index` of each candidate, ≤ 64 so it
    /// fits a byte), aligned with `sup`.
    slots: Vec<u8>,
    /// Strategy-family byte per candidate ([`crate::strategy::StrategyKind`]
    /// as `u8`) — the kernel's communication dispatch and the seed panel's
    /// family key, so neither decodes a strategy.
    fams: Vec<u8>,
    /// Seed-panel row indices (per-(family, slot) lower-bound minima;
    /// device-dependent but cluster-independent, so selected once per prep
    /// and costed per cell).
    seeds: Vec<usize>,
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
    /// [`CostEngine::prep_terms`] pass (the memory only gates the row; it
    /// is not kept), the budget-slot and family columns for the kernel are
    /// tabulated alongside, and — for the
    /// non-pipeline families, whose per-PE memory is provably nondecreasing
    /// in the batch (`2·batch·act/div + const`) — a candidate that exceeds
    /// the capacity at one batch skips the memory computation at every
    /// larger batch (it still counts as enumerated and memory-pruned
    /// there, so the accounting is unchanged).
    ///
    /// The tables are written into `preps`, one per batch: every row is
    /// recomputed, only the columns' capacity is reused.
    fn build_all(
        superset: &[Strategy],
        base: &CostEngine<'_>,
        batches: &[usize],
        constraints: &Constraints,
        preps: &mut Vec<PreppedSpace>,
    ) {
        let limits = base.limits();
        let engines: Vec<Cow<'_, CostEngine<'_>>> =
            batches.iter().map(|&b| at_batch(base, b)).collect();
        preps.resize_with(batches.len(), PreppedSpace::default);
        for prep in preps.iter_mut() {
            prep.enumerated = 0;
            prep.sup.clear();
            prep.lbs.clear();
            prep.slots.clear();
            prep.fams.clear();
        }
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
                prep.sup.push(si as u32);
                prep.lbs.push(lb);
                prep.slots.push(slot);
                prep.fams.push(fam);
            }
        }
        let n_slots = budget_index(constraints.max_pes.max(1)) + 1;
        for prep in preps.iter_mut() {
            prep.mem_pruned = prep.enumerated - prep.sup.len();
            prep.seeds = select_seeds(&prep.fams, &prep.lbs, &prep.slots, n_slots);
            prep.sup.shrink_to_fit();
            prep.lbs.shrink_to_fit();
            prep.slots.shrink_to_fit();
            prep.fams.shrink_to_fit();
        }
    }
}

/// The column buffers of one sweep: one candidate superset per model, one
/// prep per batch for every (model, device group), and one
/// communication-coefficient column per (model, cluster) pair (none in a
/// full-ranking sweep), each list model-major. A [`GridSweep`] keeps them
/// between runs and the next sweep refills them in place, so slot `i`
/// always serves the `i`-th (model, device) or (model, cluster) index of
/// the sweep at hand. Each stage trims every column it fills to its
/// length, so no push-growth slack stays live through the later stages or
/// between runs.
#[derive(Default)]
struct SweepBuffers {
    supersets: Vec<Vec<Strategy>>,
    preps: Vec<Vec<PreppedSpace>>,
    coefs: Vec<Vec<CommCoef>>,
}

/// Calls `f(i, &mut items[i])` for every index of `order` (a permutation
/// of `0..items.len()`) on the worker pool. Workers take the next index of
/// `order` whenever they free up, instead of each owning a fixed
/// contiguous share: the sweep's stages have a few items of very unequal
/// cost (one per model, or per model and cluster), and a static split
/// would make the stage's wall time depend on which items the grid's axis
/// order happens to put on one worker. Callers list the costliest items
/// first, so the schedule depends on the work alone.
fn par_fill_scheduled<T: Send>(order: &[usize], items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
    // Each slot is locked by the one worker that took its index.
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let workers = rayon::current_num_threads().clamp(1, order.len().max(1));
    let _: Vec<()> = (0..workers)
        .into_par_iter()
        .map(|_| {
            while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                f(i, &mut slots[i].lock().expect("item slot poisoned"));
            }
        })
        .collect();
}

/// Maps `f` over `0..order.len()` on the worker pool, scheduled as
/// [`par_fill_scheduled`], and returns the results in index order.
fn par_map_scheduled<T: Send>(order: &[usize], f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = order.iter().map(|_| None).collect();
    par_fill_scheduled(order, &mut slots, |i, slot| *slot = Some(f(i)));
    slots.into_iter().map(|slot| slot.expect("order covers 0..n")).collect()
}

/// `0..n` by decreasing `cost`, ties in index order: the longest-first
/// order [`par_map_scheduled`] takes.
fn costliest_first(n: usize, cost: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cost(i)));
    order
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
    /// The prep's rows over the model's superset and this cell's
    /// communication column.
    cols: KernelColumns<'e>,
    /// Static dominance-prune bounds derived from the prep's seed panel
    /// through this cell's engine.
    bounds: StaticBounds,
}

/// Per-stage wall-clock seconds of one [`GridSweep::run_timed`] sweep,
/// reported by `bench_kernel_summary` so the kernel's per-stage trajectory
/// (prep, evaluation) is visible next to the end-to-end number.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridStageTimings {
    /// Always 0: engines price their collective tables straight from the
    /// cluster, so no per-cluster stage precedes the engine builds. Kept so
    /// existing readers of the stage breakdown keep compiling.
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
    /// Per-cell merge of the chunk results, final ranking and report
    /// assembly.
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

/// Evaluates a [`QueryGrid`], amortizing engines and candidate
/// enumeration across cells (see the [module docs](crate::grid)).
///
/// A sweep keeps the column buffers of its last run — the candidate
/// supersets, the prep columns and the communication-coefficient columns —
/// and the next [`run`](GridSweep::run), [`run_timed`](GridSweep::run_timed)
/// or [`run_cached`](GridSweep::run_cached) refills them in place instead of
/// allocating (and page-faulting) them again. Every value is still
/// recomputed on every run; only capacity is reused. The kept columns are
/// trimmed to the exact length of the last run, so they never hold more
/// than that run held live. A run that finds the buffers in use by another
/// thread sweeping on the same value allocates fresh ones for itself.
/// [`Clone`] gives a sweep with empty buffers, and dropping a sweep frees
/// them.
pub struct GridSweep {
    /// Candidates per work unit of the interleaved evaluation.
    chunk: usize,
    /// The column buffers of the last run.
    kept: Mutex<SweepBuffers>,
}

impl Clone for GridSweep {
    fn clone(&self) -> Self {
        GridSweep { chunk: self.chunk, kept: Mutex::default() }
    }
}

impl std::fmt::Debug for GridSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridSweep").field("chunk", &self.chunk).finish_non_exhaustive()
    }
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
        GridSweep { chunk: DEFAULT_CHUNK, kept: Mutex::default() }
    }

    /// Overrides the candidates-per-chunk granularity (clamped to ≥ 1).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Evaluates every cell of `grid`, returning one [`SearchReport`] per
    /// cell in [`QueryGrid::queries`] order — each identical to what
    /// [`Oracle::search`](crate::oracle::Oracle::search) returns for that cell.
    ///
    /// Panics if an engine cannot be built: a grid's workloads are curated
    /// by the caller, so an unbuildable one is a caller bug, not a request.
    pub fn run(&self, grid: &QueryGrid) -> GridReport {
        self.run_timed(grid).0
    }

    /// Like [`GridSweep::run`], but also returns per-stage wall-clock
    /// timings (used by `bench_kernel_summary` to report the prep/eval
    /// split of the kernel trajectory).
    pub fn run_timed(&self, grid: &QueryGrid) -> (GridReport, GridStageTimings) {
        self.run_with(grid, None).expect("grid engine build failed")
    }

    /// Like [`GridSweep::run`], but acquiring every engine through
    /// [`EngineCache::engine`], so *repeated* sweeps over the same (model,
    /// device, cluster, γ·δ) problems skip the engine builds entirely — the
    /// cross-request amortization behind the `paradl-serve` daemon. Exactly
    /// the same results as [`GridSweep::run`]: a hydrated engine is
    /// byte-for-byte identical to a fresh build ([`CostEngine::from_core`]).
    ///
    /// Errors with the first [`EngineError`] when an engine cannot be built
    /// (a spec that passed vet can still yield non-finite tables); nothing
    /// unbuildable is cached.
    pub fn run_cached(
        &self,
        grid: &QueryGrid,
        cache: &EngineCache,
    ) -> Result<GridReport, EngineError> {
        self.run_with(grid, Some(cache)).map(|(report, _)| report)
    }

    /// One ranked query as a one-cell sweep on the caller's engine — the
    /// ranked arm of
    /// [`Oracle::answer_with_engine`](crate::oracle::Oracle::answer_with_engine).
    /// Nothing is built and nothing rebatched: the cell's candidates are
    /// enumerated at the engine's own batch. The sweep's kept buffers are
    /// neither used nor touched: a one-cell answer is a one-shot sweep.
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
            &mut SweepBuffers::default(),
            &mut timings,
        );
        cells.pop().expect("a one-cell sweep yields one cell").report
    }

    /// Engine acquisition — one engine per (model, cluster) pair at the
    /// grid's largest batch, from `ecache` when one is supplied, else built
    /// fresh — followed by the sweep over those engines.
    fn run_with(
        &self,
        grid: &QueryGrid,
        ecache: Option<&EngineCache>,
    ) -> Result<(GridReport, GridStageTimings), EngineError> {
        let mut timings = GridStageTimings::default();
        if grid.num_queries() == 0 {
            if let Some(mut kept) = self.kept_buffers() {
                *kept = SweepBuffers::default();
            }
            return Ok((GridReport { cells: Vec::new() }, timings));
        }
        let mut laps = Laps(Instant::now());
        let n_clusters = grid.clusters.len();
        let max_batch = *grid.batches.iter().max().expect("non-empty batch axis");

        // One engine per (model, cluster) pair; every batch of the grid
        // reuses the pair's batch-invariant core.
        // The engine tables are per layer, so the deepest models go first.
        let order = costliest_first(grid.models.len() * n_clusters, |i| {
            grid.models[i / n_clusters].model.layers.len()
        });
        let engines = par_map_scheduled(&order, |i| {
            let (m, c) = (i / n_clusters, i % n_clusters);
            let gm = &grid.models[m];
            let cluster = &grid.clusters[c];
            let config = gm.config_at(max_batch);
            match ecache {
                Some(ec) => ec.engine(&gm.model, cluster, config).map(|(engine, _)| engine),
                None => CostEngine::new(&gm.model, &cluster.device, cluster, config),
            }
        });
        let engines = engines.into_iter().collect::<Result<Vec<_>, _>>()?;
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

        let mut kept = self.kept_buffers();
        let cells = self.sweep(
            &engines,
            &group_of,
            &grid.batches,
            &grid.constraints,
            kept.as_deref_mut().unwrap_or(&mut SweepBuffers::default()),
            &mut timings,
        );
        Ok((GridReport { cells }, timings))
    }

    /// The kept buffers, or `None` while another thread sweeps with them.
    /// A poisoned lock is recovered: every sweep clears each buffer before
    /// refilling it, so a sweep that panicked leaves nothing the next one
    /// reads.
    fn kept_buffers(&self) -> Option<MutexGuard<'_, SweepBuffers>> {
        match self.kept.try_lock() {
            Ok(kept) => Some(kept),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The sweep over prepared engines. `engines` holds one engine per
    /// (model, cluster) pair, model-major, at any batch; `group_of[c]` is
    /// the device group of cluster `c` (clusters of one group share the
    /// prep tables). The supersets, preps and communication columns are
    /// written into `bufs`. Returns the cells model-major, then batch, then
    /// cluster — [`QueryGrid::queries`] order — and records the stages from
    /// `supersets` on, timed from the call.
    fn sweep(
        &self,
        engines: &[CostEngine<'_>],
        group_of: &[usize],
        batches: &[usize],
        constraints: &Constraints,
        bufs: &mut SweepBuffers,
        timings: &mut GridStageTimings,
    ) -> Vec<GridCell> {
        let mut laps = Laps(Instant::now());
        let n_clusters = group_of.len();
        let n_models = engines.len() / n_clusters;
        let n_groups = group_of.iter().max().map_or(0, |&g| g + 1);
        let group_reps: Vec<usize> = (0..n_groups)
            .map(|g| group_of.iter().position(|&x| x == g).expect("groups are dense"))
            .collect();
        let max_batch = *batches.iter().max().expect("non-empty batch axis");

        // One candidate superset per model, enumerated at the largest
        // batch; models enumerate in parallel. Nothing cheaper than the
        // enumeration predicts its cost, so models go in grid order.
        let SweepBuffers { supersets, preps, coefs } = bufs;
        let order: Vec<usize> = (0..n_models).collect();
        supersets.resize_with(n_models, Vec::new);
        par_fill_scheduled(&order, supersets, |m, superset| {
            let limits = engines[m * n_clusters].limits();
            StrategySpace::fill(max_batch, constraints, limits, superset);
            // Trim by copying, not in place: freeing the push-grown buffer
            // keeps glibc's dynamic mmap and trim thresholds where a cold
            // sweep always left them (an in-place shrink raised the minor
            // faults of a mix of one-shot queries about 2.5-fold). A refill
            // to the same length has no slack and copies nothing.
            if superset.capacity() > superset.len() {
                *superset = superset.to_vec();
            }
        });
        let supersets: &[Vec<Strategy>] = supersets;
        timings.supersets = laps.lap();

        // Per-(model, device) prepped spaces covering the whole batch axis:
        // one superset pass enumerates, memory-prunes and bound-tabulates
        // every batch's candidates, so the largest supersets go first.
        let order = costliest_first(n_models * n_groups, |i| supersets[i / n_groups].len());
        preps.resize_with(n_models * n_groups, Vec::new);
        par_fill_scheduled(&order, preps, |i, preps| {
            let (m, g) = (i / n_groups, i % n_groups);
            let engine = &engines[m * n_clusters + group_reps[g]];
            PreppedSpace::build_all(&supersets[m], engine, batches, constraints, preps);
        });
        let preps: &[Vec<PreppedSpace>] = preps;
        timings.preps = laps.lap();

        // Per-(model, cluster) communication columns, aligned with the
        // model's candidate superset: the batch-invariant parts of every
        // candidate's communication time (collective times, link
        // parameters — the dominant per-candidate cost) are tabulated once
        // per pair instead of being re-derived in every batch's cell. Rows
        // no batch's prep references (invalid or memory-infeasible at every
        // batch) are skipped. Full ranking builds a fresh estimate per
        // candidate and never reads the columns.
        if constraints.top_k.is_some() {
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
            let order = costliest_first(n_models * n_clusters, |i| supersets[i / n_clusters].len());
            coefs.resize_with(n_models * n_clusters, Vec::new);
            par_fill_scheduled(&order, coefs, |i, column| {
                let (m, c) = (i / n_clusters, i % n_clusters);
                let (engine, used) = (&engines[i], &used[m * n_groups + group_of[c]]);
                column.clear();
                column.extend(supersets[m].iter().zip(used).map(|(&s, &u)| {
                    if u {
                        engine.comm_prep(s)
                    } else {
                        CommCoef::default()
                    }
                }));
                column.shrink_to_fit();
            });
        } else {
            coefs.clear();
        }
        let coefs: &[Vec<CommCoef>] = coefs;
        timings.comms = laps.lap();

        // Cell contexts: the engine at the cell's batch, its kernel columns
        // and its static dominance bounds, which cost the prep's seed panel
        // through the cell's own engine (communication is
        // cluster-dependent, so seed *times* are per cell even though seed
        // *selection* is per prep).
        let n_slots = budget_index(constraints.max_pes.max(1)) + 1;
        let mut cells: Vec<CellCtx<'_, '_>> =
            Vec::with_capacity(n_models * batches.len() * n_clusters);
        for m in 0..n_models {
            for (b, &batch) in batches.iter().enumerate() {
                for c in 0..n_clusters {
                    let prep = &preps[m * n_groups + group_of[c]][b];
                    let engine = at_batch(&engines[m * n_clusters + c], batch);
                    let cols = KernelColumns {
                        superset: &supersets[m],
                        sup: &prep.sup,
                        lbs: &prep.lbs,
                        slots: &prep.slots,
                        fams: &prep.fams,
                        coef: coefs.get(m * n_clusters + c).map_or(&[][..], Vec::as_slice),
                    };
                    let bounds = StaticBounds::from_seeds(
                        &engine,
                        &cols,
                        &prep.seeds,
                        constraints.top_k,
                        n_slots,
                    );
                    cells.push(CellCtx {
                        query: GridQuery { model: m, cluster: c, batch },
                        engine,
                        prep,
                        cols,
                        bounds,
                    });
                }
            }
        }
        timings.cells = laps.lap();

        // Candidate-level work splitting: fixed-size chunks, interleaved
        // round-robin across cells so a huge cell spreads over all workers
        // instead of pinning one. Workers take chunks in that order as they
        // free up: chunks differ in cost (full estimates, survivor counts),
        // so a static split would leave one worker idle. Each chunk returns
        // its prune count and costed candidates, in `items` order.
        let chunk = self.chunk;
        let mut items: Vec<(usize, usize)> = Vec::new();
        let mut round = 0usize;
        loop {
            let mut any = false;
            for (ci, cell) in cells.iter().enumerate() {
                if round * chunk < cell.prep.sup.len() {
                    items.push((ci, round));
                    any = true;
                }
            }
            if !any {
                break;
            }
            round += 1;
        }
        let order: Vec<usize> = (0..items.len()).collect();
        let results = par_map_scheduled(&order, |k| {
            let (ci, round) = items[k];
            let cell = &cells[ci];
            let lo = round * chunk;
            let hi = (lo + chunk).min(cell.prep.sup.len());
            eval_chunk_kernel(&cell.engine, &cell.cols, &cell.bounds, lo, hi, constraints)
        });
        timings.eval = laps.lap();

        // Per-cell merge of the chunk results, then the final ranking in
        // parallel across cells.
        let mut merged: Vec<(GridQuery, &PreppedSpace, usize, Vec<RankedCandidate>)> =
            cells.iter().map(|cell| (cell.query, cell.prep, 0, Vec::new())).collect();
        for (&(ci, _), (pruned, found)) in items.iter().zip(results) {
            merged[ci].2 += pruned;
            merged[ci].3.extend(found);
        }
        let cells: Vec<GridCell> = merged
            .into_par_iter()
            .map(|(query, prep, pruned, found)| {
                let report =
                    finish_report(prep.enumerated, prep.mem_pruned, pruned, found, constraints);
                GridCell { query, report }
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
    use crate::search::strategy_sort_key;

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

    /// The engine a per-query oracle builds for `q`.
    fn cell_engine<'g>(grid: &'g QueryGrid, q: GridQuery) -> CostEngine<'g> {
        let gm = &grid.models[q.model];
        let cluster = &grid.clusters[q.cluster];
        CostEngine::new(&gm.model, &cluster.device, cluster, gm.config_at(q.batch))
            .expect("engine builds")
    }

    /// Prep rows hold no memory column, so every reported estimate
    /// recomputes it: each ranked candidate and budget winner must carry
    /// exactly the cell engine's per-PE memory.
    fn assert_memory_recomputed(grid: &QueryGrid, report: &GridReport) {
        for cell in &report.cells {
            let engine = cell_engine(grid, cell.query);
            let reported = cell
                .report
                .ranked
                .iter()
                .chain(cell.report.best_per_budget.iter().map(|w| &w.candidate));
            for c in reported {
                assert_eq!(
                    c.projection.cost.memory_per_pe_bytes.to_bits(),
                    engine.memory_per_pe(c.strategy).to_bits(),
                    "{:?}: memory of {}",
                    cell.query,
                    c.strategy
                );
            }
        }
    }

    #[test]
    fn scheduled_map_returns_results_in_index_order() {
        let order = costliest_first(100, |i| (i * 37) % 11);
        assert_eq!(order.len(), 100);
        assert!(order.windows(2).all(|w| (w[0] * 37) % 11 >= (w[1] * 37) % 11));
        let squares = par_map_scheduled(&order, |i| i * i);
        assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(par_map_scheduled(&[], |i| i).is_empty());
    }

    #[test]
    fn prep_rows_match_direct_enumeration() {
        let base = Constraints { max_pes: 256, sweep: PeSweep::Exhaustive, ..Default::default() };
        // A capacity that admits some candidates and prunes others: the
        // serial footprint of the first model at the smallest batch.
        let probe = small_grid(base);
        let tight = cell_engine(&probe, GridQuery { model: 0, cluster: 0, batch: 32 })
            .memory_per_pe(Strategy::Serial);
        for capacity in [base.memory_capacity_bytes, tight] {
            let constraints = Constraints { memory_capacity_bytes: capacity, ..base };
            let grid = small_grid(constraints);
            let (mut kept, mut pruned) = (0, 0);
            for (m, gm) in grid.models.iter().enumerate() {
                let max_batch = *grid.batches.iter().max().expect("batches");
                let engine =
                    cell_engine(&grid, GridQuery { model: m, cluster: 0, batch: max_batch });
                let superset =
                    StrategySpace::with_limits(max_batch, &constraints, engine.limits()).into_vec();
                let mut preps = Vec::new();
                PreppedSpace::build_all(
                    &superset,
                    &engine,
                    &grid.batches,
                    &constraints,
                    &mut preps,
                );
                for (prep, &batch) in preps.iter().zip(&grid.batches) {
                    let what = format!("{} at batch {batch}, capacity {capacity}", gm.model.name);
                    let direct = cell_engine(&grid, GridQuery { model: m, cluster: 0, batch });
                    let all =
                        StrategySpace::with_limits(batch, &constraints, direct.limits()).into_vec();
                    let (fits, over): (Vec<Strategy>, Vec<Strategy>) =
                        all.iter().partition(|&&s| direct.memory_per_pe(s) <= capacity);
                    let rows: Vec<Strategy> =
                        prep.sup.iter().map(|&i| superset[i as usize]).collect();
                    assert_eq!(rows, fits, "{what}: rows");
                    assert_eq!(prep.enumerated, all.len(), "{what}: enumerated");
                    assert_eq!(prep.mem_pruned, over.len(), "{what}: memory-pruned");
                    for (i, &s) in rows.iter().enumerate() {
                        assert_eq!(
                            prep.lbs[i].to_bits(),
                            direct.lower_bound(s).to_bits(),
                            "{what}: bound of {s}"
                        );
                    }
                    // Reference seed panel: decode each row's family from
                    // its strategy, keep the first lowest bound per
                    // (family, budget slot).
                    let mut best: std::collections::BTreeMap<(u8, usize), usize> =
                        Default::default();
                    for (i, s) in rows.iter().enumerate() {
                        let key = (strategy_sort_key(s).0, budget_index(s.total_pes()));
                        let j = best.entry(key).or_insert(i);
                        if prep.lbs[i] < prep.lbs[*j] {
                            *j = i;
                        }
                    }
                    let mut seeds: Vec<usize> = best.into_values().collect();
                    seeds.sort_unstable();
                    assert_eq!(prep.seeds, seeds, "{what}: seeds");
                    kept += rows.len();
                    pruned += prep.mem_pruned;
                }
            }
            assert!(kept > 0, "capacity {capacity} must admit candidates");
            if capacity == tight {
                assert!(pruned > 0, "capacity {capacity} must prune candidates");
            }
        }
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
        assert_memory_recomputed(&grid, &fast);
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
        assert_memory_recomputed(&grid, &fast);
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
        let cached = sweep.run_cached(&grid, &cache).expect("engines build");
        for (a, b) in plain.cells.iter().zip(&cached.cells) {
            assert_eq!(a.query, b.query);
            assert_reports_equal(&a.report, &b.report, &format!("cold {:?}", a.query));
        }
        let first = cache.stats();
        assert!(first.misses > 0, "cold sweep must populate the cache");
        // A second sweep over the same grid hits for every engine, and
        // still produces identical reports.
        let warm = sweep.run_cached(&grid, &cache).expect("engines build");
        let second = cache.stats();
        assert_eq!(second.misses, first.misses, "warm sweep must not rebuild");
        assert!(second.hits > first.hits, "warm sweep must hit");
        for (a, b) in plain.cells.iter().zip(&warm.cells) {
            assert_reports_equal(&a.report, &b.report, &format!("warm {:?}", a.query));
        }
    }

    /// Every kept column is trimmed to its length, and the slot counts are
    /// the last sweep's: `models` supersets, `models × groups` prep lists
    /// and, for a top-k sweep, `models × clusters` coefficient columns.
    fn assert_kept_exact(sweep: &GridSweep, grid: &QueryGrid, groups: usize) {
        let kept = sweep.kept.lock().expect("no sweep running");
        let n_models = grid.models.len();
        let n_coefs =
            if grid.constraints.top_k.is_some() { n_models * grid.clusters.len() } else { 0 };
        assert_eq!(kept.supersets.len(), n_models, "superset slots");
        assert_eq!(kept.preps.len(), n_models * groups, "prep slots");
        assert_eq!(kept.coefs.len(), n_coefs, "coefficient slots");
        assert!(kept.supersets.iter().all(|s| s.capacity() == s.len()), "supersets trimmed");
        assert!(kept.coefs.iter().all(|c| c.capacity() == c.len()), "coefficients trimmed");
        for prep in kept.preps.iter().flatten() {
            assert_eq!(prep.sup.capacity(), prep.sup.len(), "prep rows trimmed");
            assert_eq!(prep.lbs.capacity(), prep.lbs.len(), "prep bounds trimmed");
            assert_eq!(prep.slots.capacity(), prep.slots.len(), "prep slots trimmed");
            assert_eq!(prep.fams.capacity(), prep.fams.len(), "prep families trimmed");
        }
    }

    #[test]
    fn reused_buffers_reproduce_fresh_sweeps() {
        let a = small_grid(Constraints {
            max_pes: 256,
            top_k: Some(7),
            sweep: PeSweep::Exhaustive,
            ..Default::default()
        });
        // Other models and batches, fewer slots, full ranking: no
        // coefficient columns.
        let b = QueryGrid::new(Constraints { max_pes: 128, ..Default::default() })
            .with_model(model(3), TrainingConfig::small(2048, 48))
            .with_batches([48usize, 16])
            .with_cluster(ClusterSpec::workstation(8));
        // A's models swapped: every slot A kept now serves another model.
        let swapped = QueryGrid::new(a.constraints)
            .with_model(model(1), TrainingConfig::small(4096, 64))
            .with_model(model(0), TrainingConfig::small(8192, 64))
            .with_batches([96usize, 32])
            .with_cluster(ClusterSpec::workstation(8))
            .with_cluster(ClusterSpec::paper_system());
        let sweep = GridSweep::new().with_chunk_size(256);
        let cache = EngineCache::new(16);
        let runs: [(&str, &QueryGrid, GridReport); 5] = [
            ("A", &a, sweep.run(&a)),
            ("B", &b, sweep.run(&b)),
            ("A again", &a, sweep.run(&a)),
            ("A swapped", &swapped, sweep.run(&swapped)),
            ("cached B", &b, sweep.run_cached(&b, &cache).expect("engines build")),
        ];
        for (name, grid, report) in &runs {
            let fresh = GridSweep::new().with_chunk_size(256).run(grid);
            assert_eq!(report.len(), fresh.len(), "{name}: cells");
            for (x, y) in report.cells.iter().zip(&fresh.cells) {
                assert_eq!(x.query, y.query, "{name}: cell order");
                assert_reports_equal(&x.report, &y.report, &format!("{name} {:?}", x.query));
            }
            assert_memory_recomputed(grid, report);
        }
        // Every cluster of either grid carries the V100 profile.
        assert_kept_exact(&sweep, &b, 1);
        sweep.run(&a);
        assert_kept_exact(&sweep, &a, 1);
        // A clone starts empty; an empty grid leaves nothing kept.
        let clone = sweep.clone();
        assert!(clone.kept.lock().expect("unlocked").supersets.is_empty());
        sweep.run(&QueryGrid::new(Constraints::default()));
        assert!(sweep.kept.lock().expect("unlocked").supersets.is_empty());
    }

    #[test]
    fn busy_or_poisoned_buffers_still_sweep_exactly() {
        let grid = small_grid(Constraints { max_pes: 128, top_k: Some(5), ..Default::default() });
        let expected = GridSweep::new().run(&grid);
        let check = |report: &GridReport, what: &str| {
            for (x, y) in report.cells.iter().zip(&expected.cells) {
                assert_reports_equal(&x.report, &y.report, &format!("{what} {:?}", x.query));
            }
        };
        let sweep = GridSweep::new();
        // Buffers held elsewhere: the run sweeps on fresh ones and leaves
        // the held ones alone.
        {
            let held = sweep.kept.lock().expect("unlocked");
            check(&sweep.run(&grid), "busy");
            assert!(held.supersets.is_empty(), "a busy run must not touch the held buffers");
        }
        // Two threads sweeping on one value at once.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        sweep.run(&grid)
                    })
                })
                .collect();
            for worker in workers {
                check(&worker.join().expect("sweep thread"), "concurrent");
            }
        });
        // A panic while the buffers were held poisons the lock; the next
        // run recovers them.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = sweep.kept.lock();
                panic!("poison the kept buffers");
            })
            .join()
        });
        assert!(poisoner.is_err() && sweep.kept.is_poisoned());
        check(&sweep.run(&grid), "poisoned");
        assert!(!sweep.kept.lock().unwrap_or_else(|p| p.into_inner()).supersets.is_empty());
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
