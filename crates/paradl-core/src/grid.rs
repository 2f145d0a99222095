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
//!    pair, built with [`CostEngine::new`]; [`GridSweep::run_engine`]
//!    skips this part: it sweeps one problem at one or several batches on
//!    an engine the caller brings (an oracle's own, or one from an
//!    [`EngineCache`]);
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
//! * **candidate storage** — a superset row is one packed word where every
//!   field of its strategy fits 15 bits (a fifth of a [`Strategy`]),
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
//!   [`crate::kernel`] module: a prep pass that gates each candidate by
//!   [`CostEngine::memory_per_pe`] and keeps its
//!   [`CostEngine::lower_bound`], static dominance bounds seeded per cell
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
//! The supersets, prep columns and communication columns can stay
//! *resident* between sweeps, each with the exact inputs it was computed
//! from, in a column store (the crate-internal `resident` module, one type
//! with two owners):
//!
//! * a [`GridSweep`] keeps the columns of its last [`GridSweep::run`] or
//!   [`GridSweep::run_timed`], keyed by the parts of [`crate::key`] they
//!   depend on, recorded as the words those keys hash: a superset by
//!   (scaling limits, largest batch, [`ConstraintsKey`]); a prep set by
//!   ([`ModelKey`], the device profile, [`MemoryKey`], the dataset size,
//!   the batch axis, [`ConstraintsKey`]), which determine its superset too
//!   — the dataset size is in no [`ProblemKey`], but every lower bound reads
//!   it; a communication column by (its prep set's inputs, [`ClusterKey`]).
//!   These sweeps build every engine on its cluster's device profile, so
//!   the profile stands for the engine's per-layer times. A repeated
//!   paper-grid sweep thus pays for engines, cells and evaluation only:
//!   ≈ 62–76 ms against ≈ 197–215 ms cold (`bench_kernel_summary`, shared
//!   2-vCPU Xeon, two runs);
//! * every [`EngineCache`] entry keeps the columns of its problem for the
//!   ranked sweeps [`GridSweep::run_engine`] runs on the entry's engines
//!   — the `paradl-serve` daemon's groups. The entry confirms the model,
//!   the cluster and `δ`/`γ`, so these columns record only the dataset
//!   size, the constraints' words and the batch axis: one variant on an
//!   axis of at most eight batches, kept from the variant's second group
//!   on, and grown by a batch on that batch's second sight. A group
//!   evaluates cells only at its own batches, which is exact because a
//!   cell's report does not depend on the other batches of its axis. The
//!   stores of one cache keep at most the columns of one one-batch sweep
//!   at the admission cap, 344 MB; columns that would exceed that are
//!   freed after their sweep.
//!
//! A later sweep reuses every kept column whose inputs it asks for again,
//! matched wherever the column sat (a reordered axis still hits) and
//! confirmed by value: the model's words are walked only when its key
//! matches, and every float is compared by its bits, so −0.0 and 0.0
//! differ and a NaN matches only its own bits. It computes only the other
//! columns, each into the buffer of a kept column it no longer needs. A
//! column's inputs are cleared before it is refilled and recorded only once
//! the sweep is complete (for a grid, once its engines are freed), so a
//! sweep that panics leaves no inputs on a half-filled column, and a record
//! never raises a grid sweep's peak: a run asks for its columns by key
//! words and borrowed values, and copies a model's words only into a
//! record, fewer bytes than the freed engines held. The kept set is exactly
//! the last keyed sweep's columns, each trimmed to its length, plus their
//! records. A sweep that finds its store busy (another thread sweeping with
//! it) sweeps on fresh buffers and keys nothing; a cloned [`GridSweep`]
//! starts with no columns, and dropping a store's owner frees them.
//!
//! Everything else is one-shot, on buffers of its own: [`Oracle::search`],
//! a ranked [`Oracle::answer`] and [`crate::query::Query::run`] call
//! [`GridSweep::run_engine`] without a store, and no sweep touches another
//! owner's columns.
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
//! [`EngineCache`]: crate::engine::EngineCache
//! [`ProblemKey`]: crate::key::ProblemKey
//! [`MemoryKey`]: crate::key::MemoryKey

use crate::cluster::ClusterSpec;
use crate::compute::DeviceProfile;
use crate::config::TrainingConfig;
use crate::engine::{CommCoef, CostEngine, ModelLimits};
use crate::kernel::{eval_chunk_kernel, select_seeds, KernelColumns, StaticBounds, DEFAULT_CHUNK};
use crate::key::{ClusterKey, ConstraintsKey, ModelKey};
use crate::model::Model;
use crate::oracle::Constraints;
use crate::resident::{
    Outcome, Plan, PrepWant, Scope, SupersetInputs, SweepBuffers, Variant, Wants,
};
use crate::search::{budget_index, finish_report, RankedCandidate, SearchReport, StrategySpace};
use crate::strategy::{SpatialSplit, Strategy};
use rayon::prelude::*;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use crate::resident::{ColumnStore, ColumnStoreStats};

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

/// A model's candidate superset, in enumeration order. A strategy whose
/// fields all fit [`FIELD_BITS`] bits packs into one word — its family in
/// the top four bits, up to four fields below — a fifth of a
/// [`Strategy`]'s 40 bytes; a superset with any strategy that does not fit
/// keeps the strategies themselves. Only the prep pass, the communication
/// columns and the candidates the kernel costs in full read a row's
/// strategy; the evaluation pass reads none.
pub(crate) enum Superset {
    /// Every strategy packed into one word.
    Packed(Vec<u64>),
    /// The strategies themselves.
    Wide(Vec<Strategy>),
}

/// Bits per packed strategy field.
const FIELD_BITS: u32 = 15;
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;

impl Default for Superset {
    fn default() -> Self {
        Superset::Packed(Vec::new())
    }
}

impl Superset {
    /// Enumerates the candidates of `limits` at `batch` under
    /// `constraints` into this column, reusing its packed buffer. The
    /// column is trimmed to its length by copying, not in place: freeing
    /// the push-grown buffer keeps glibc's dynamic mmap and trim thresholds
    /// where a cold sweep always left them (an in-place shrink raised the
    /// minor faults of a mix of one-shot queries about 2.5-fold). A refill
    /// to the same length has no slack and copies nothing.
    fn fill(&mut self, batch: usize, constraints: &Constraints, limits: &ModelLimits) {
        let mut words = match std::mem::take(self) {
            Superset::Packed(words) => words,
            Superset::Wide(_) => Vec::new(),
        };
        words.clear();
        let mut packs = true;
        StrategySpace::enumerate(batch, constraints, limits, |s| match pack(s) {
            Some(word) if packs => words.push(word),
            _ => packs = false,
        });
        *self = if packs {
            Superset::Packed(trimmed(words))
        } else {
            let mut strategies = Vec::new();
            StrategySpace::fill(batch, constraints, limits, &mut strategies);
            Superset::Wide(trimmed(strategies))
        };
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Superset::Packed(words) => words.len(),
            Superset::Wide(strategies) => strategies.len(),
        }
    }

    /// The strategy of row `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Strategy {
        match self {
            Superset::Packed(words) => unpack(words[i]),
            Superset::Wide(strategies) => strategies[i],
        }
    }

    /// The rows in order.
    fn iter(&self) -> SupersetIter<'_> {
        match self {
            Superset::Packed(words) => SupersetIter::Packed(words.iter()),
            Superset::Wide(strategies) => SupersetIter::Wide(strategies.iter()),
        }
    }

    /// Bytes of the column.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            Superset::Packed(words) => words.capacity() * std::mem::size_of::<u64>(),
            Superset::Wide(strategies) => strategies.capacity() * std::mem::size_of::<Strategy>(),
        }
    }
}

/// The rows of a [`Superset`], in order.
enum SupersetIter<'s> {
    Packed(std::slice::Iter<'s, u64>),
    Wide(std::slice::Iter<'s, Strategy>),
}

impl Iterator for SupersetIter<'_> {
    type Item = Strategy;

    #[inline]
    fn next(&mut self) -> Option<Strategy> {
        match self {
            SupersetIter::Packed(words) => words.next().map(|&word| unpack(word)),
            SupersetIter::Wide(strategies) => strategies.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SupersetIter::Packed(words) => words.size_hint(),
            SupersetIter::Wide(strategies) => strategies.size_hint(),
        }
    }
}

impl ExactSizeIterator for SupersetIter<'_> {}

/// `v` without spare capacity, copied if it has any.
fn trimmed<T: Copy>(v: Vec<T>) -> Vec<T> {
    if v.capacity() > v.len() {
        v.to_vec()
    } else {
        v
    }
}

/// `s` as one word (see [`Superset`]), or `None` if a field does not fit.
fn pack(s: Strategy) -> Option<u64> {
    let (family, fields) = match s {
        Strategy::Serial => (0, [0; 4]),
        Strategy::Data { p } => (1, [p, 0, 0, 0]),
        Strategy::Spatial { split } => (2, [split.pw, split.ph, split.pd, 0]),
        Strategy::Filter { p } => (3, [p, 0, 0, 0]),
        Strategy::Channel { p } => (4, [p, 0, 0, 0]),
        Strategy::Pipeline { p, segments } => (5, [p, segments, 0, 0]),
        Strategy::DataFilter { p1, p2 } => (6, [p1, p2, 0, 0]),
        Strategy::DataSpatial { p1, split } => (7, [p1, split.pw, split.ph, split.pd]),
    };
    let mut word = family << (4 * FIELD_BITS);
    for (i, field) in (0..).zip(fields) {
        let field = u64::try_from(field).ok().filter(|&f| f <= FIELD_MASK)?;
        word |= field << (i * FIELD_BITS);
    }
    Some(word)
}

/// The strategy [`pack`] packed into `word`.
#[inline]
fn unpack(word: u64) -> Strategy {
    let field = |i: u32| ((word >> (i * FIELD_BITS)) & FIELD_MASK) as usize;
    let split = |i: u32| SpatialSplit { pw: field(i), ph: field(i + 1), pd: field(i + 2) };
    match word >> (4 * FIELD_BITS) {
        0 => Strategy::Serial,
        1 => Strategy::Data { p: field(0) },
        2 => Strategy::Spatial { split: split(0) },
        3 => Strategy::Filter { p: field(0) },
        4 => Strategy::Channel { p: field(0) },
        5 => Strategy::Pipeline { p: field(0), segments: field(1) },
        6 => Strategy::DataFilter { p1: field(0), p2: field(1) },
        _ => Strategy::DataSpatial { p1: field(0), split: split(1) },
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
pub(crate) struct PreppedSpace {
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
    /// Bytes of the tables.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.sup.capacity() * size_of::<u32>()
            + self.lbs.capacity() * size_of::<f64>()
            + self.slots.capacity()
            + self.fams.capacity()
            + self.seeds.capacity() * size_of::<usize>()
    }

    /// Builds the prep tables of one (model, device) for *every* batch of
    /// the grid in a single superset pass: candidate validity is monotone in
    /// the batch (every batch-dependent bound is a `≤ batch` comparison), so
    /// each candidate's validity is resolved once at the smallest admitting
    /// batch instead of being re-checked per batch. `base` is any engine of
    /// the (model, device) pair; per-batch siblings are rebatched from it.
    ///
    /// [`CostEngine::memory_per_pe`] gates each row (the memory is not
    /// kept), and only a row that fits pays for its
    /// [`CostEngine::lower_bound`]; the budget-slot and family columns for
    /// the kernel are tabulated alongside. Per-PE memory is nondecreasing in
    /// the batch for every family (`2·batch·act/div + const`, and for a
    /// pipeline the maximum of such terms over its stages), so a candidate
    /// that exceeds the capacity at one batch skips the memory computation
    /// at every larger batch (it still counts as enumerated and
    /// memory-pruned there, so the accounting is unchanged).
    ///
    /// The tables are written into `preps`, one per batch: every row is
    /// recomputed, only the columns' capacity is reused.
    fn build_all(
        superset: &Superset,
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
        // A pipeline's memory depends on its depth and the batch, not on its
        // segment count, and the superset lists each depth's rows together
        // (segments inner), so the last depth's memory per batch is enough
        // to price each (depth, batch) once.
        let mut pipe_depth = 0;
        let mut pipe_mem: Vec<Option<f64>> = vec![None; batches.len()];
        for (si, strategy) in superset.iter().enumerate() {
            let mut j = 0;
            while j < order.len() && !limits.is_valid(strategy, batches[order[j]]) {
                j += 1;
            }
            let slot = budget_index(strategy.total_pes()) as u8;
            let fam = strategy.kind() as u8;
            if let Strategy::Pipeline { p, .. } = strategy {
                if p != pipe_depth {
                    pipe_depth = p;
                    pipe_mem.fill(None);
                }
            }
            let mut infeasible = false;
            for &bi in &order[j..] {
                let prep = &mut preps[bi];
                prep.enumerated += 1;
                if infeasible {
                    continue;
                }
                let memory = match strategy {
                    Strategy::Pipeline { .. } => {
                        *pipe_mem[bi].get_or_insert_with(|| engines[bi].memory_per_pe(strategy))
                    }
                    _ => engines[bi].memory_per_pe(strategy),
                };
                if memory > constraints.memory_capacity_bytes {
                    infeasible = true;
                    continue;
                }
                prep.sup.push(si as u32);
                prep.lbs.push(engines[bi].lower_bound(strategy));
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

/// Calls `f(i, &mut items[i])` for every index of `order` (distinct
/// indices of `items`) on the worker pool. Workers take the next index of
/// `order` whenever they free up, instead of each owning a fixed
/// contiguous share: the sweep's stages have a few items of very unequal
/// cost (one per model, or per model and cluster), and a static split
/// would make the stage's wall time depend on which items the grid's axis
/// order happens to put on one worker. Callers list the costliest items
/// first, so the schedule depends on the work alone.
pub(crate) fn par_fill_scheduled<T: Send>(
    order: &[usize],
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) {
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
/// A sweep keeps the columns of its last run resident in a [`ColumnStore`]
/// of its own — the candidate supersets, the prep columns and the
/// communication-coefficient columns, each with the inputs it was computed
/// from (see the [module docs](crate::grid) for the keys). The next
/// [`run`](GridSweep::run) or [`run_timed`](GridSweep::run_timed) reuses
/// every column whose inputs it asks for again and computes the rest into
/// the buffers of the columns it no longer needs, so a repeated grid pays
/// only for engines, cells and evaluation, and a grid with one axis
/// changed also for the columns that axis reaches.
/// [`run_engine`](GridSweep::run_engine) never touches them: it sweeps on
/// the store its caller passes (an engine-cache entry's) or on buffers of
/// its own. The kept set is exactly the last run's columns, trimmed to
/// their lengths, plus their records, so it never holds more than that run
/// held live and a model's words per prep set. A run that finds the
/// columns in use by another thread sweeping on the same value sweeps on
/// fresh buffers of its own. [`Clone`] gives a sweep with no columns, and
/// dropping a sweep frees them.
pub struct GridSweep {
    /// Candidates per work unit of the interleaved evaluation.
    chunk: usize,
    /// The resident columns of the last run.
    kept: ColumnStore,
}

impl Clone for GridSweep {
    fn clone(&self) -> Self {
        GridSweep { chunk: self.chunk, kept: ColumnStore::default() }
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
        GridSweep { chunk: DEFAULT_CHUNK, kept: ColumnStore::default() }
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
    /// split of the kernel trajectory). Engine acquisition — one engine per
    /// (model, cluster) pair at the grid's largest batch — followed by the
    /// sweep over those engines.
    pub fn run_timed(&self, grid: &QueryGrid) -> (GridReport, GridStageTimings) {
        let mut timings = GridStageTimings::default();
        if grid.num_queries() == 0 {
            if let Some(mut kept) = self.kept.lock() {
                kept.buffers = SweepBuffers::default();
            }
            return (GridReport { cells: Vec::new() }, timings);
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
            CostEngine::new(&gm.model, &cluster.device, cluster, gm.config_at(max_batch))
        });
        let engines: Vec<_> =
            engines.into_iter().collect::<Result<_, _>>().expect("grid engine build failed");
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

        let mut kept = self.kept.lock();
        let every_batch: Vec<usize> = (0..grid.batches.len()).collect();
        let (cells, wants) = self.sweep(
            &engines,
            &group_of,
            (&grid.batches, &every_batch),
            &grid.constraints,
            kept.as_deref_mut().map(|kept| (&mut kept.buffers, Scope::Grid)),
            &mut timings,
        );
        // The engines go before the computed columns' inputs are recorded:
        // a record copies its model's words, fewer bytes than the model's
        // engine held, so recording never raises the sweep's peak.
        drop(engines);
        if let (Some(wants), Some(kept)) = (wants, kept.as_deref_mut()) {
            let mut laps = Laps(Instant::now());
            wants.record(&mut kept.buffers);
            timings.finish += laps.lap();
        }
        (GridReport { cells }, timings)
    }

    /// The cells of one problem at `batches`, swept on the caller's
    /// `engine`: a one-model, one-cluster grid whose engine the caller
    /// acquired — an oracle's own for a one-cell answer
    /// ([`Oracle::answer_with_engine`](crate::oracle::Oracle::answer_with_engine)
    /// asks for the engine's own batch, so nothing is rebatched), or one
    /// the `paradl-serve` daemon took from
    /// [`EngineCache::engine`](crate::engine::EngineCache::engine) under a
    /// key it computed once per group. The engine may sit at any
    /// batch; each other cell is answered on a rebatched sibling, so the
    /// report equals [`GridSweep::run`] on that grid. Cells come back in
    /// `batches` order with model and cluster index 0.
    ///
    /// Without `columns` the sweep is one-shot: it computes every column
    /// into buffers of its own. With `columns` — the store of the cache
    /// entry `engine` came from, and only that entry's, since the store
    /// does not record the problem — a ranked group of one variant
    /// (dataset size and constraints) sweeps on the store's columns over
    /// its batch axis, a sorted superset of `batches` of at most eight
    /// batches, and evaluates cells only at `batches`: a repeated group
    /// computes no column. A variant's first group sweeps one-shot and
    /// keeps nothing, and so does a group that brings a batch outside the
    /// axis for the first time, or that finds the store busy; columns that
    /// would take the cache's stores over their byte budget are freed after
    /// the sweep. Either way this sweep's own kept columns are left alone,
    /// so a keyed sweep stays warm across `run_engine` calls.
    pub fn run_engine(
        &self,
        engine: &CostEngine<'_>,
        batches: &[usize],
        constraints: &Constraints,
        columns: Option<&ColumnStore>,
    ) -> GridReport {
        if batches.is_empty() {
            return GridReport { cells: Vec::new() };
        }
        let engines = std::slice::from_ref(engine);
        let mut timings = GridStageTimings::default();
        let one_shot = |timings: &mut GridStageTimings| {
            let every_batch: Vec<usize> = (0..batches.len()).collect();
            let (cells, _) =
                self.sweep(engines, &[0], (batches, &every_batch), constraints, None, timings);
            GridReport { cells }
        };
        let Some(store) = columns else { return one_shot(&mut timings) };
        let mut kept = match store.lock() {
            Some(mut kept) => match kept.plan(Variant::of(engine, constraints), batches) {
                Plan::Keep { axis, admitted } => Some((kept, axis, admitted)),
                Plan::OneShot => None,
            },
            None => None,
        };
        let Some((kept, axis, admitted)) = kept.as_mut() else {
            store.settle(Outcome::Miss, None);
            return one_shot(&mut timings);
        };
        let at: Vec<usize> = batches
            .iter()
            .map(|b| axis.binary_search(b).expect("the axis holds every batch"))
            .collect();
        let (cells, wants) = self.sweep(
            engines,
            &[0],
            (axis, &at),
            constraints,
            Some((&mut kept.buffers, Scope::Entry)),
            &mut timings,
        );
        let computed = wants.expect("a keyed sweep asks for its columns").record(&mut kept.buffers);
        let outcome = match (*admitted, computed) {
            (true, _) => Outcome::Admitted,
            (false, 0) => Outcome::Hit,
            (false, _) => Outcome::Miss,
        };
        store.settle(outcome, Some(&mut **kept));
        GridReport { cells }
    }

    /// The sweep over prepared engines. `engines` holds one engine per
    /// (model, cluster) pair, model-major, at any batch; `group_of[c]` is
    /// the device group of cluster `c` (clusters of one group share the
    /// prep tables). `(axis, at)` are the batches the columns cover and
    /// the axis index of each batch to evaluate, in cell order. With `kept`
    /// (a keyed sweep, which holds its store's lock), the supersets, preps
    /// and communication columns are taken from it where they were
    /// computed from the inputs this sweep asks for in that [`Scope`], and
    /// the rest are computed into its buffers. Without it (a one-shot
    /// sweep) every column is computed into buffers local to the call,
    /// matched and recorded nowhere. Returns the cells model-major, then
    /// `at`, then cluster — [`QueryGrid::queries`] order for a grid — and,
    /// for a keyed sweep, the [`Wants`] the caller records once it has
    /// freed the engines; records the stages from `supersets` on, timed
    /// from the call.
    fn sweep<'a, 'b>(
        &self,
        engines: &[CostEngine<'a>],
        group_of: &[usize],
        (axis, at): (&'b [usize], &[usize]),
        constraints: &Constraints,
        kept: Option<(&mut SweepBuffers, Scope)>,
        timings: &mut GridStageTimings,
    ) -> (Vec<GridCell>, Option<Wants<'a, 'b>>) {
        let mut laps = Laps(Instant::now());
        let n_clusters = group_of.len();
        let n_models = engines.len() / n_clusters;
        let n_groups = group_of.iter().max().map_or(0, |&g| g + 1);
        let group_reps: Vec<usize> = (0..n_groups)
            .map(|g| group_of.iter().position(|&x| x == g).expect("groups are dense"))
            .collect();
        let max_batch = *axis.iter().max().expect("non-empty batch axis");
        let (kept, scope) = kept.unzip();
        let mut local = SweepBuffers::default();
        let SweepBuffers { supersets, preps, coefs } = kept.unwrap_or(&mut local);
        let prep_engine =
            |i: usize| &engines[(i / n_groups) * n_clusters + group_reps[i % n_groups]];
        let n_coefs = if constraints.top_k.is_some() { n_models * n_clusters } else { 0 };
        let prep_of = |i: usize| (i / n_clusters) * n_groups + group_of[i % n_clusters];
        let wants = scope.map(|scope| {
            let constraints = ConstraintsKey::words(constraints);
            let grid = scope == Scope::Grid;
            let model_keys: Vec<Option<ModelKey>> = (0..n_models)
                .map(|m| grid.then(|| ModelKey::of(engines[m * n_clusters].model())))
                .collect();
            Wants {
                supersets: (0..n_models)
                    .map(|m| {
                        SupersetInputs::of(scope, &engines[m * n_clusters], max_batch, constraints)
                    })
                    .collect(),
                preps: (0..n_models * n_groups)
                    .map(|i| {
                        PrepWant::of(prep_engine(i), model_keys[i / n_groups], axis, constraints)
                    })
                    .collect(),
                coefs: (0..n_coefs)
                    .map(|i| (prep_of(i), grid.then(|| ClusterKey::words(engines[i].cluster()))))
                    .collect(),
            }
        });

        // One candidate superset per model, enumerated at the largest
        // batch; models enumerate in parallel. Nothing cheaper than the
        // enumeration predicts its cost, so models go in grid order.
        let order = supersets.claim(n_models, wants.as_ref().map(|w| &w.supersets[..]));
        supersets.fill(&order, |m, superset| {
            superset.fill(max_batch, constraints, engines[m * n_clusters].limits());
        });
        let superset_cols = &*supersets;
        timings.supersets = laps.lap();

        // Per-(model, device) prepped spaces covering the whole batch axis:
        // one superset pass enumerates, memory-prunes and bound-tabulates
        // every batch's candidates, so the largest supersets go first.
        let mut order = preps.claim(n_models * n_groups, wants.as_ref().map(|w| &w.preps[..]));
        order.sort_by_key(|&i| std::cmp::Reverse(superset_cols[i / n_groups].len()));
        preps.fill(&order, |i, preps| {
            let superset = &superset_cols[i / n_groups];
            PreppedSpace::build_all(superset, prep_engine(i), axis, constraints, preps);
        });
        let prep_cols = &*preps;
        timings.preps = laps.lap();

        // Per-(model, cluster) communication columns, aligned with the
        // model's candidate superset: the batch-invariant parts of every
        // candidate's communication time (collective times, link
        // parameters — the dominant per-candidate cost) are tabulated once
        // per pair instead of being re-derived in every batch's cell. Rows
        // no batch's prep references (invalid or memory-infeasible at every
        // batch) are skipped. Full ranking builds a fresh estimate per
        // candidate and never reads the columns.
        let coef_wants = wants.as_ref().map(Wants::coef_wants);
        let mut order = coefs.claim(n_coefs, coef_wants.as_deref());
        // Which superset rows each prep set behind a column to fill uses at
        // any batch: only those rows are priced.
        let mut used: Vec<Vec<bool>> = vec![Vec::new(); n_models * n_groups];
        for &i in &order {
            let p = prep_of(i);
            if used[p].is_empty() {
                used[p] = vec![false; superset_cols[i / n_clusters].len()];
                for prep in &prep_cols[p] {
                    for &si in &prep.sup {
                        used[p][si as usize] = true;
                    }
                }
            }
        }
        order.sort_by_key(|&i| std::cmp::Reverse(superset_cols[i / n_clusters].len()));
        coefs.fill(&order, |i, column| {
            let (engine, used) = (&engines[i], &used[prep_of(i)]);
            column.clear();
            column.extend(superset_cols[i / n_clusters].iter().zip(used).map(|(s, &u)| {
                if u {
                    engine.comm_prep(s)
                } else {
                    CommCoef::default()
                }
            }));
            column.shrink_to_fit();
        });
        drop(used);
        let coef_cols = &*coefs;
        timings.comms = laps.lap();

        // Cell contexts: the engine at the cell's batch, its kernel columns
        // and its static dominance bounds, which cost the prep's seed panel
        // through the cell's own engine (communication is
        // cluster-dependent, so seed *times* are per cell even though seed
        // *selection* is per prep).
        let n_slots = budget_index(constraints.max_pes.max(1)) + 1;
        let mut ctxs: Vec<CellCtx<'_, '_>> = Vec::with_capacity(n_models * at.len() * n_clusters);
        for m in 0..n_models {
            for &b in at {
                let batch = axis[b];
                for c in 0..n_clusters {
                    let prep = &prep_cols[m * n_groups + group_of[c]][b];
                    let engine = at_batch(&engines[m * n_clusters + c], batch);
                    let cols = KernelColumns {
                        superset: &superset_cols[m],
                        sup: &prep.sup,
                        lbs: &prep.lbs,
                        slots: &prep.slots,
                        fams: &prep.fams,
                        coef: if n_coefs > 0 { &coef_cols[m * n_clusters + c] } else { &[] },
                    };
                    let bounds = StaticBounds::from_seeds(
                        &engine,
                        &cols,
                        &prep.seeds,
                        constraints.top_k,
                        n_slots,
                    );
                    ctxs.push(CellCtx {
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
            for (ci, cell) in ctxs.iter().enumerate() {
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
            let cell = &ctxs[ci];
            let lo = round * chunk;
            let hi = (lo + chunk).min(cell.prep.sup.len());
            eval_chunk_kernel(&cell.engine, &cell.cols, &cell.bounds, lo, hi, constraints)
        });
        timings.eval = laps.lap();

        // Per-cell merge of the chunk results, then the final ranking in
        // parallel across cells.
        let mut merged: Vec<(GridQuery, &PreppedSpace, usize, Vec<RankedCandidate>)> =
            ctxs.iter().map(|cell| (cell.query, cell.prep, 0, Vec::new())).collect();
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
        (cells, wants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineCache, ModelLimits};
    use crate::key::{KeyedModel, ProblemKey};
    use crate::layer::Layer;
    use crate::oracle::{Oracle, PeSweep};
    use crate::resident::StoreCounters;
    use crate::search::strategy_sort_key;
    use std::sync::Arc;

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

    #[test]
    fn a_superset_packs_every_strategy_whose_fields_fit() {
        for sweep in [PeSweep::PowersOfTwo, PeSweep::Exhaustive] {
            let constraints =
                Constraints { max_pes: 512, sweep, pipeline_segments: 32, ..Default::default() };
            let limits = ModelLimits::of(&model(0));
            let direct = StrategySpace::with_limits(256, &constraints, &limits).into_vec();
            let mut superset = Superset::default();
            superset.fill(256, &constraints, &limits);
            assert!(matches!(superset, Superset::Packed(_)), "small fields pack");
            assert_eq!(superset.iter().collect::<Vec<_>>(), direct, "{sweep:?}");
            assert_eq!(superset.bytes(), 8 * direct.len());
        }
        let split = SpatialSplit { pw: 2, ph: 3, pd: 1 };
        let widest = FIELD_MASK as usize;
        for s in [
            Strategy::Serial,
            Strategy::Data { p: widest },
            Strategy::Spatial { split },
            Strategy::Filter { p: 7 },
            Strategy::Channel { p: 9 },
            Strategy::Pipeline { p: 4, segments: widest },
            Strategy::DataFilter { p1: widest, p2: 5 },
            Strategy::DataSpatial { p1: 6, split: SpatialSplit { pd: widest, ..split } },
        ] {
            assert_eq!(pack(s).map(unpack), Some(s), "{s}");
        }
        assert_eq!(pack(Strategy::Data { p: widest + 1 }), None);
        // A field too wide for a word keeps the strategies themselves.
        let wide = Constraints { max_pes: 1 << 16, ..Default::default() };
        let limits = ModelLimits::of(&model(0));
        let mut superset = Superset::default();
        superset.fill(1 << 16, &wide, &limits);
        assert!(matches!(superset, Superset::Wide(_)), "a 16-bit field does not pack");
        let direct = StrategySpace::with_limits(1 << 16, &wide, &limits).into_vec();
        assert_eq!(superset.iter().collect::<Vec<_>>(), direct);
        superset.fill(256, &Constraints::default(), &limits);
        assert!(matches!(superset, Superset::Packed(_)), "a refill packs again");
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
                let mut superset = Superset::default();
                superset.fill(max_batch, &constraints, engine.limits());
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
                        prep.sup.iter().map(|&i| superset.get(i as usize)).collect();
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
        // Each (model, cluster) pair of the grid swept on an engine from a
        // cache — the daemon's path — at a batch the grid does not ask for.
        let cache = EngineCache::new(16);
        for top_k in [Some(5), None] {
            let grid = small_grid(Constraints { max_pes: 256, top_k, ..Default::default() });
            let plain = GridSweep::new().run(&grid);
            let sweep = GridSweep::new();
            let models: Vec<_> = grid
                .models()
                .iter()
                .map(|gm| Arc::new(KeyedModel::new(gm.model.clone())))
                .collect();
            for pass in ["cold", "warm"] {
                let before = cache.stats();
                for (m, gm) in grid.models().iter().enumerate() {
                    for (c, cluster) in grid.clusters().iter().enumerate() {
                        let config = gm.config_at(48);
                        let key = ProblemKey::of(&models[m], cluster, &config);
                        let (engine, _, columns) =
                            cache.engine(&key, &models[m], cluster, config).expect("engine builds");
                        let batches = grid.batches();
                        let swept =
                            sweep.run_engine(&engine, batches, grid.constraints(), Some(&columns));
                        assert_eq!(swept.len(), grid.batches().len());
                        for cell in &swept.cells {
                            let want = plain.get(m, cell.query.batch, c).expect("plain cell");
                            let what = format!("{pass} {top_k:?} {:?}", want.query);
                            assert_reports_equal(&want.report, &cell.report, &what);
                        }
                        assert!(sweep
                            .run_engine(&engine, &[], grid.constraints(), None)
                            .is_empty());
                    }
                }
                let after = cache.stats();
                let pairs = (grid.models().len() * grid.clusters().len()) as u64;
                let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
                // Every core is built once, on the first cold pass.
                let cold_misses = if pass == "cold" && top_k.is_some() { pairs } else { 0 };
                assert_eq!((hits, misses), (pairs - cold_misses, cold_misses), "{pass} {top_k:?}");
            }
        }
    }

    /// Every kept column is trimmed to its length and keyed by its inputs,
    /// and the slot counts are the last sweep's: `models` supersets,
    /// `models × groups` prep lists and, for a top-k sweep,
    /// `models × clusters` coefficient columns.
    fn assert_kept_exact(sweep: &GridSweep, grid: &QueryGrid, groups: usize) {
        let kept = sweep.kept.lock().expect("no sweep running");
        let kept = &kept.buffers;
        let n_models = grid.models.len();
        let n_coefs =
            if grid.constraints.top_k.is_some() { n_models * grid.clusters.len() } else { 0 };
        assert_eq!(kept.supersets.slots.len(), n_models, "superset slots");
        assert_eq!(kept.preps.slots.len(), n_models * groups, "prep slots");
        assert_eq!(kept.coefs.slots.len(), n_coefs, "coefficient slots");
        assert!(kept.supersets.slots.iter().all(|s| s.inputs.is_some()), "supersets keyed");
        assert!(kept.preps.slots.iter().all(|s| s.inputs.is_some()), "preps keyed");
        assert!(kept.coefs.slots.iter().all(|s| s.inputs.is_some()), "coefficients keyed");
        let trimmed = |s: &Superset| match s {
            Superset::Packed(words) => words.capacity() == words.len(),
            Superset::Wide(strategies) => strategies.capacity() == strategies.len(),
        };
        assert!(kept.supersets.slots.iter().all(|s| trimmed(&s.column)), "supersets trimmed");
        let coefs = kept.coefs.slots.iter().map(|s| &s.column);
        assert!(coefs.into_iter().all(|c| c.capacity() == c.len()), "coefficients trimmed");
        for prep in kept.preps.slots.iter().flat_map(|s| &s.column) {
            assert_eq!(prep.sup.capacity(), prep.sup.len(), "prep rows trimmed");
            assert_eq!(prep.lbs.capacity(), prep.lbs.len(), "prep bounds trimmed");
            assert_eq!(prep.slots.capacity(), prep.slots.len(), "prep slots trimmed");
            assert_eq!(prep.fams.capacity(), prep.fams.len(), "prep families trimmed");
        }
    }

    /// Columns each stage (supersets, preps, coefficients) has computed
    /// over `sweep`'s lifetime.
    fn filled(sweep: &GridSweep) -> [usize; 3] {
        let kept = sweep.kept.lock().expect("no sweep running");
        let kept = &kept.buffers;
        [kept.supersets.filled, kept.preps.filled, kept.coefs.filled]
    }

    #[test]
    fn resident_columns_are_reused_only_for_their_inputs() {
        let constraints = Constraints { max_pes: 128, top_k: Some(5), ..Default::default() };
        let grid = small_grid(constraints);
        let sweep = GridSweep::new().with_chunk_size(256);
        let check = |grid: &QueryGrid, report: &GridReport, what: &str| {
            let fresh = GridSweep::new().with_chunk_size(256).run(grid);
            for (x, y) in report.cells.iter().zip(&fresh.cells) {
                assert_reports_equal(&x.report, &y.report, &format!("{what} {:?}", x.query));
            }
        };
        // Two models, one device group, two clusters.
        check(&grid, &sweep.run(&grid), "cold");
        assert_eq!(filled(&sweep), [2, 2, 4], "cold");
        check(&grid, &sweep.run(&grid), "warm");
        assert_eq!(filled(&sweep), [2, 2, 4], "a repeat computes nothing");
        // The model axis reversed: every column hits where it now sits.
        let reversed = QueryGrid::new(constraints)
            .with_model(model(1), TrainingConfig::small(4096, 64))
            .with_model(model(0), TrainingConfig::small(8192, 64))
            .with_batches([32usize, 64, 96])
            .with_cluster(ClusterSpec::paper_system())
            .with_cluster(ClusterSpec::workstation(8));
        check(&reversed, &sweep.run(&reversed), "reversed");
        assert_eq!(filled(&sweep), [2, 2, 4], "a reordered axis hits");
        // A third cluster on the V100 profile: only its coefficients.
        let wider = small_grid(constraints).with_cluster(ClusterSpec::workstation(4));
        check(&wider, &sweep.run(&wider), "wider");
        assert_eq!(filled(&sweep), [2, 2, 6], "a new cluster computes its columns only");
        // A cluster on another device profile: a prep set per model for its
        // device group, and its coefficients.
        let cpu = DeviceProfile::reference_cpu();
        let devices = small_grid(constraints)
            .with_cluster(ClusterSpec { device: cpu.clone(), ..ClusterSpec::paper_system() });
        check(&devices, &sweep.run(&devices), "devices");
        assert_eq!(filled(&sweep), [2, 4, 8], "a new device computes its prep sets");
        // One model's dataset size: its prep set and coefficients, not its
        // superset (the dataset is in no `ProblemKey`).
        let dataset = QueryGrid::new(constraints)
            .with_model(model(0), TrainingConfig::small(8192, 64))
            .with_model(model(1), TrainingConfig::small(4097, 64))
            .with_batches([32usize, 64, 96])
            .with_cluster(ClusterSpec::paper_system())
            .with_cluster(ClusterSpec::workstation(8));
        check(&dataset, &sweep.run(&dataset), "dataset");
        assert_eq!(filled(&sweep), [2, 5, 10], "a dataset size moves its prep and coefficients");
        // Another capacity, −0.0 against 0.0 included: everything.
        let mut last = grid.clone();
        for capacity in [0.0, -0.0] {
            last = small_grid(Constraints { memory_capacity_bytes: capacity, ..constraints });
            let before = filled(&sweep);
            check(&last, &sweep.run(&last), "capacity");
            assert_eq!(filled(&sweep), [before[0] + 2, before[1] + 2, before[2] + 4], "{capacity}");
        }
        // A caller's engine, on either compute model: swept on buffers of
        // its own, so the kept columns stay keyed by the last run and its
        // repeat computes nothing.
        let before = filled(&sweep);
        let (gm, cluster) = (&grid.models[0], &grid.clusters[0]);
        for device in [&cluster.device, &cpu] {
            let engine = CostEngine::new(&gm.model, device, cluster, gm.config_at(64))
                .expect("engine builds");
            let swept = sweep.run_engine(&engine, &[32, 64], &constraints, None);
            let fresh = GridSweep::new().run_engine(&engine, &[32, 64], &constraints, None);
            for (x, y) in swept.cells.iter().zip(&fresh.cells) {
                assert_reports_equal(&x.report, &y.report, &format!("engine {:?}", x.query));
            }
            assert_eq!(filled(&sweep), before, "run_engine computes nothing into the kept columns");
            assert_kept_exact(&sweep, &last, 1);
        }
        check(&last, &sweep.run(&last), "after run_engine");
        assert_eq!(filled(&sweep), before, "a repeat after run_engine computes nothing");
    }

    /// Columns each stage of `store` has computed over its lifetime.
    fn store_filled(store: &ColumnStore) -> [usize; 3] {
        let kept = store.lock().expect("no sweep running");
        let kept = &kept.buffers;
        [kept.supersets.filled, kept.preps.filled, kept.coefs.filled]
    }

    /// The batch axis of `store`'s kept prep set (empty when none is kept).
    fn store_axis(store: &ColumnStore) -> usize {
        let kept = store.lock().expect("no sweep running");
        kept.buffers.preps.slots.first().map_or(0, |slot| slot.column.len())
    }

    /// `run_engine` on `store` at `batches`, checked cell for cell against
    /// a one-shot sweep of the same engine.
    fn run_on_store(
        engine: &CostEngine<'_>,
        store: &ColumnStore,
        batches: &[usize],
        constraints: &Constraints,
    ) {
        let sweep = GridSweep::new().with_chunk_size(256);
        let kept = sweep.run_engine(engine, batches, constraints, Some(store));
        let fresh = sweep.run_engine(engine, batches, constraints, None);
        assert_eq!(kept.len(), batches.len(), "one cell per batch at {batches:?}");
        for (x, y) in kept.cells.iter().zip(&fresh.cells) {
            assert_eq!(x.query, y.query, "cell order at {batches:?}");
            assert_reports_equal(&x.report, &y.report, &format!("store at {batches:?}"));
        }
    }

    #[test]
    fn an_entry_store_keeps_a_variant_from_its_second_group_on() {
        let constraints = Constraints { max_pes: 128, top_k: Some(5), ..Default::default() };
        let m = model(0);
        let cluster = ClusterSpec::paper_system();
        let config = TrainingConfig::small(8192, 64);
        let engine = CostEngine::new(&m, &cluster.device, &cluster, config).expect("engine builds");
        let counters = Arc::new(StoreCounters::default());
        let store = ColumnStore::counted(&counters);
        let stats = |hits, misses, admissions| {
            let now = counters.stats();
            assert_eq!((now.hits, now.misses, now.admissions), (hits, misses, admissions));
        };
        run_on_store(&engine, &store, &[64], &constraints);
        assert_eq!(store_filled(&store), [0, 0, 0], "a variant's first group keeps nothing");
        assert_eq!(counters.stats().resident_bytes, 0);
        stats(0, 1, 0);
        run_on_store(&engine, &store, &[64], &constraints);
        assert_eq!(store_filled(&store), [1, 1, 1], "the second group is admitted");
        stats(0, 2, 1);
        let bytes = counters.stats().resident_bytes;
        assert!(bytes > 0, "an admitted store holds its columns");
        run_on_store(&engine, &store, &[64], &constraints);
        assert_eq!(store_filled(&store), [1, 1, 1], "a repeated group computes no column");
        stats(1, 2, 1);
        assert_eq!(counters.stats().resident_bytes, bytes);
        // A smaller batch sweeps one-shot on its first sight, and on its
        // second grows the axis to [32, 64]: the preps (and the columns
        // priced from them), not the superset at the largest batch.
        run_on_store(&engine, &store, &[32], &constraints);
        assert_eq!(store_filled(&store), [1, 1, 1], "a batch's first sight keeps nothing");
        assert_eq!(store_axis(&store), 1);
        stats(1, 3, 1);
        run_on_store(&engine, &store, &[32], &constraints);
        assert_eq!(store_filled(&store), [1, 2, 2], "a grown axis keeps its superset");
        assert_eq!(store_axis(&store), 2);
        stats(1, 4, 1);
        // Both batches in any order, or either alone: the kept axis serves.
        for batches in [&[64, 32][..], &[32], &[64]] {
            run_on_store(&engine, &store, batches, &constraints);
        }
        assert_eq!(store_filled(&store), [1, 2, 2]);
        stats(4, 4, 1);
        // A larger batch grows the largest one, on its second sight: every
        // column.
        for _ in 0..2 {
            run_on_store(&engine, &store, &[96, 32], &constraints);
        }
        assert_eq!(store_filled(&store), [2, 3, 3]);
        assert_eq!(store_axis(&store), 3);
        stats(4, 6, 1);
        // Another variant — a dataset size, a capacity, or full ranking —
        // sweeps one-shot first and replaces the kept one on its second
        // group; a full ranking keeps no communication column.
        let config = TrainingConfig { dataset_size: 4096, ..config };
        let dataset =
            CostEngine::new(&m, &cluster.device, &cluster, config).expect("engine builds");
        run_on_store(&dataset, &store, &[96, 32, 64], &constraints);
        assert_eq!(store_filled(&store), [2, 3, 3], "a first sight keeps nothing");
        // Admitted on the kept axis: the prep set's dataset size alone
        // tells the kept columns from the ones this variant needs.
        run_on_store(&dataset, &store, &[96, 32, 64], &constraints);
        assert_eq!(store_filled(&store), [2, 4, 4], "a dataset size keeps its superset");
        let capacity = Constraints { memory_capacity_bytes: 1e9, ..constraints };
        let full = Constraints { top_k: None, ..constraints };
        for other in [capacity, full] {
            let before = store_filled(&store);
            run_on_store(&engine, &store, &[64], &other);
            assert_eq!(store_filled(&store), before, "a first sight keeps nothing");
            run_on_store(&engine, &store, &[64], &other);
            let coefs = usize::from(other.top_k.is_some());
            assert_eq!(store_filled(&store), [before[0] + 1, before[1] + 1, before[2] + coefs]);
        }
        stats(4, 12, 4);
        assert!(store.lock().expect("unlocked").buffers.coefs.slots.is_empty());
        // A busy store sweeps one-shot and counts a miss.
        let held = store.lock().expect("unlocked");
        run_on_store(&engine, &store, &[64], &full);
        drop(held);
        stats(4, 13, 4);
        run_on_store(&engine, &store, &[64], &full);
        stats(5, 13, 4);
    }

    #[test]
    fn an_entry_store_axis_stays_bounded() {
        use crate::resident::AXIS_CAP;
        let constraints = Constraints { max_pes: 64, top_k: Some(3), ..Default::default() };
        let m = model(1);
        let cluster = ClusterSpec::workstation(8);
        let engine =
            CostEngine::new(&m, &cluster.device, &cluster, TrainingConfig::small(4096, 32))
                .expect("engine builds");
        let store = ColumnStore::default();
        // Admit the variant, then stream distinct batch sizes at it: each
        // asked once, none joins the axis.
        run_on_store(&engine, &store, &[8], &constraints);
        run_on_store(&engine, &store, &[8], &constraints);
        assert_eq!(store_axis(&store), 1);
        for batch in 9..40 {
            run_on_store(&engine, &store, &[batch], &constraints);
        }
        assert_eq!(store_axis(&store), 1, "a batch asked once does not join the axis");
        assert_eq!(store_filled(&store), [1, 1, 1]);
        // Cycle more distinct batches than the cap: the axis fills up on
        // their second sights, and from then on the batches outside it sweep
        // one-shot and compute no column into the store.
        let cycle: Vec<usize> = (40..40 + AXIS_CAP + 4).collect();
        let mut fills = Vec::new();
        for _ in 0..3 {
            for &batch in &cycle {
                run_on_store(&engine, &store, &[batch], &constraints);
                assert!(store_axis(&store) <= AXIS_CAP, "the axis at batch {batch}");
            }
            fills.push(store_filled(&store)[1]);
        }
        assert_eq!(store_axis(&store), AXIS_CAP, "the axis grows up to its cap");
        assert_eq!(fills, [1, AXIS_CAP, AXIS_CAP], "a full axis computes no more prep sets");
        // A group with more distinct batches than the cap sweeps one-shot
        // and leaves the store as it was.
        let before = store_filled(&store);
        let wide: Vec<usize> = (50..50 + AXIS_CAP + 1).collect();
        run_on_store(&engine, &store, &wide, &constraints);
        run_on_store(&engine, &store, &wide, &constraints);
        assert_eq!(store_filled(&store), before);
        run_on_store(&engine, &store, &[41], &constraints);
        assert_eq!(store_filled(&store), before, "a kept batch is still served");
    }

    #[test]
    fn entry_stores_keep_no_columns_past_their_budget() {
        let constraints = Constraints { max_pes: 64, top_k: Some(3), ..Default::default() };
        let m = model(2);
        let clusters = [ClusterSpec::workstation(8), ClusterSpec::paper_system()];
        let engines: Vec<_> = clusters
            .iter()
            .map(|cluster| {
                CostEngine::new(&m, &cluster.device, cluster, TrainingConfig::small(4096, 32))
                    .expect("engine builds")
            })
            .collect();
        // What each problem's store holds at [16, 32] under no budget.
        let held: Vec<u64> = engines
            .iter()
            .map(|engine| {
                let counters = Arc::new(StoreCounters::default());
                let store = ColumnStore::counted(&counters);
                for _ in 0..2 {
                    run_on_store(engine, &store, &[16, 32], &constraints);
                }
                counters.stats().resident_bytes
            })
            .collect();
        assert!(held.iter().all(|&b| b > 0));
        // A budget that holds the first store and not both: the second
        // problem's admission computes its columns, answers from them and
        // frees them, and stays unadmitted; the first keeps its columns.
        let counters = Arc::new(StoreCounters::with_budget(held[0] + held[1] - 1));
        let stores = [ColumnStore::counted(&counters), ColumnStore::counted(&counters)];
        for (engine, store) in engines.iter().zip(&stores) {
            for _ in 0..3 {
                run_on_store(engine, store, &[16, 32], &constraints);
            }
        }
        let stats = counters.stats();
        assert_eq!(stats.resident_bytes, held[0], "only the first store keeps its columns");
        assert_eq!((stats.hits, stats.misses, stats.admissions), (1, 5, 1));
        assert_eq!((store_axis(&stores[0]), store_axis(&stores[1])), (2, 0));
        assert_eq!(store_filled(&stores[1]), [1, 1, 1], "the refusal filled once, then one-shot");
        // Freeing the first store makes room: the second is kept from its
        // next admission on, and then hits.
        drop(stores);
        let counters = Arc::new(StoreCounters::with_budget(held[1]));
        let store = ColumnStore::counted(&counters);
        for _ in 0..3 {
            run_on_store(&engines[1], &store, &[16, 32], &constraints);
        }
        let stats = counters.stats();
        assert_eq!((stats.hits, stats.resident_bytes), (1, held[1]), "a budget that fits keeps");
        // A budget below any store keeps nothing, and every answer is exact.
        let counters = Arc::new(StoreCounters::with_budget(0));
        let store = ColumnStore::counted(&counters);
        for _ in 0..4 {
            run_on_store(&engines[0], &store, &[16, 32], &constraints);
        }
        let stats = counters.stats();
        assert_eq!((stats.hits, stats.admissions, stats.resident_bytes), (0, 0, 0));
    }

    #[test]
    fn the_resident_budget_is_one_capped_sweep() {
        use crate::resident::RESIDENT_BUDGET;
        assert_eq!(std::mem::size_of::<Strategy>(), 40, "the budget's unpacked superset row");
        assert_eq!(std::mem::size_of::<CommCoef>(), 32, "the budget's communication row");
        assert_eq!(RESIDENT_BUDGET, 344_000_000, "the number the docs state");
    }

    #[test]
    fn a_panicking_fill_leaves_no_inputs_on_an_entry_store() {
        let constraints = Constraints { max_pes: 64, top_k: Some(3), ..Default::default() };
        let m = model(2);
        let cluster = ClusterSpec::workstation(8);
        let engine =
            CostEngine::new(&m, &cluster.device, &cluster, TrainingConfig::small(4096, 32))
                .expect("engine builds");
        let store = ColumnStore::default();
        run_on_store(&engine, &store, &[16, 32], &constraints);
        run_on_store(&engine, &store, &[16, 32], &constraints);
        assert_eq!(store_axis(&store), 2);
        // A sweep that panics half-way through refilling the prep set,
        // holding the lock: the lock is poisoned, the column unkeyed.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut kept = store.lock().expect("unlocked");
            let (axis, words) = ([8, 16], ConstraintsKey::words(&constraints));
            let want = [PrepWant::of(&engine, None, &axis, words)];
            let order = kept.buffers.preps.claim(1, Some(&want[..]));
            assert_eq!(order, [0], "another axis refills the prep set");
            kept.buffers.preps.fill(&order, |_, preps| {
                preps.clear();
                panic!("the prep fill fails half-way");
            });
        }));
        assert!(caught.is_err() && store.is_poisoned());
        {
            let kept = store.lock().expect("a poisoned lock is recovered");
            assert!(kept.buffers.preps.slots.iter().all(|s| s.inputs.is_none()));
        }
        // The next groups recover the lock, keep nothing from the failed
        // sweep, and answer exactly; the variant is kept again from its
        // second group on.
        let before = store_filled(&store);
        run_on_store(&engine, &store, &[16, 32], &constraints);
        assert_eq!(store_filled(&store)[1], before[1], "a first sight again");
        run_on_store(&engine, &store, &[16, 32], &constraints);
        assert_eq!(store_filled(&store)[1], before[1] + 1);
        run_on_store(&engine, &store, &[32], &constraints);
        assert_eq!(store_filled(&store)[1], before[1] + 1, "kept again");
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
        let (bm, bc) = (&b.models()[0], &b.clusters()[0]);
        let engine_b =
            CostEngine::new(&bm.model, &bc.device, bc, bm.config_at(48)).expect("engine builds");
        let runs: [(&str, &QueryGrid, GridReport); 5] = [
            ("A", &a, sweep.run(&a)),
            ("B", &b, sweep.run(&b)),
            ("A again", &a, sweep.run(&a)),
            ("A swapped", &swapped, sweep.run(&swapped)),
            ("engine B", &b, sweep.run_engine(&engine_b, b.batches(), b.constraints(), None)),
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
        sweep.run(&b);
        assert_kept_exact(&sweep, &b, 1);
        sweep.run(&a);
        assert_kept_exact(&sweep, &a, 1);
        // A clone starts empty; an empty grid leaves nothing kept.
        let clone = sweep.clone();
        assert!(clone.kept.lock().expect("unlocked").buffers.supersets.slots.is_empty());
        sweep.run(&QueryGrid::new(Constraints::default()));
        assert!(sweep.kept.lock().expect("unlocked").buffers.supersets.slots.is_empty());
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
            let untouched = held.buffers.supersets.slots.is_empty();
            assert!(untouched, "a busy run must not touch the held buffers");
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
        assert!(!sweep.kept.lock().expect("recovered").buffers.supersets.slots.is_empty());
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
