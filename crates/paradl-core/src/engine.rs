//! Precomputed cost engine: the search hot path of the oracle.
//!
//! The reference cost model in [`crate::cost`] and [`crate::memory`] re-walks
//! every layer of the model for every candidate strategy — `O(layers)` work
//! plus several short-lived allocations per candidate. An exhaustive search
//! over tens of thousands of candidates therefore pays
//! `O(candidates × layers)` even though almost all of that arithmetic is
//! identical between candidates.
//!
//! [`CostEngine`] precomputes, once per (model, device, cluster, config)
//! problem, every model-dependent table the cost formulas need. The tables
//! fall into two classes, and the split is **load-bearing** for
//! [`CostEngine::rebatch`] (which rewrites only the second class when the
//! global batch changes, e.g. across the cells of a
//! [`crate::grid::QueryGrid`]):
//!
//! **Batch-invariant** (held in one [`std::sync::Arc`]-shared core, so
//! rebatched siblings of an engine share it without copying):
//!
//! * per-layer `FW`/`BW`/`WU` times ([`LayerTimes`]) and their totals — the
//!   device model is only a function of layer shapes,
//! * activation/weight/bias element totals for the memory model (the batch
//!   factor is applied at query time),
//! * per-pipeline-depth aggregates for every `p ≤ G`: bottleneck stage
//!   times, boundary activation sizes, and the per-stage memory split into
//!   `(activation, static)` element pairs — the balanced grouping depends
//!   only on per-layer FLOPs, never on the batch,
//! * halo-exchange aggregates per split-dimension mask (which of the ≤ 3
//!   spatial dimensions are split — the only thing the halo volume depends
//!   on),
//! * memoized collective-time building blocks keyed by communicator size for
//!   the gradient-exchange Allreduce of the data, spatial, data+filter and
//!   data+spatial strategies — derived from the topology tables of a
//!   [`ClusterCache`] that can itself be `Arc`-shared between every engine
//!   on the same cluster ([`CostEngine::with_cache`]),
//! * the model's scaling-limit table ([`ModelLimits`]) used by candidate
//!   enumeration and validation,
//! * the per-candidate communication coefficients (`CommCoef`, from
//!   `CostEngine::comm_prep`): every batch-dependent communication term
//!   of the cost model is written in batch-last form
//!   `fixed + batch · per_sample`, so four stored scalars per candidate
//!   let `CostEngine::comm_time_prepped` reconstruct the *exact*
//!   communication time of any batch with a couple of fused
//!   multiply-adds — no collective-model derivation, and no division, in
//!   the grid kernel's hot loop. The grid sweep tabulates one coefficient
//!   column per (model, cluster) pair and reuses it across every batch
//!   cell.
//!
//! **Batch-dependent** (rewritten in place by [`CostEngine::rebatch`],
//! `O(layers²)` float max/fma operations, no allocation, no device, layer or
//! topology queries):
//!
//! * the stored [`TrainingConfig`]'s `batch_size` (iteration counts and the
//!   per-sample → per-batch factors are derived from it at query time),
//! * the per-depth maximum pipeline-stage memory, re-maximized from the
//!   batch-invariant `(activation, static)` pairs as
//!   `max_i (2·B·act_i + static_i)`.
//!
//! Because `rebatch` re-runs exactly the arithmetic [`CostEngine::new`] runs
//! for the batch-dependent tables (same per-group pairs, same fold order), a
//! rebatched engine is **byte-for-byte identical** to an engine freshly
//! built at the new batch — which is what lets [`crate::grid::GridSweep`]
//! answer a whole batch sweep from one engine while returning exactly what
//! per-query searches would.
//!
//! After construction, [`CostEngine::estimate`], [`CostEngine::memory_per_pe`]
//! and [`CostEngine::lower_bound`] all run in `O(1)` per candidate (no
//! allocation), which is what makes the pruned search in [`crate::search`]
//! much faster than the reference path at scale. Measured end to end on a
//! CosmoFlow-scale exhaustive space (≈ 226k candidates at 16 Ki PEs, see
//! `paradl-bench/benches/engine.rs`, 16-core container): the reference path
//! finishes the search in ≈ 0.82 s (≈ 0.28 M candidates/s), the engine-backed
//! full ranking in ≈ 0.17 s (≈ 1.4 M candidates/s), and the engine with
//! top-10 pruning in ≈ 0.08 s (≈ 2.9 M candidates/s) — a 5–10× end-to-end
//! speedup, with engine construction itself costing ≈ 17 µs (CosmoFlow) to
//! ≈ 170–230 µs (ResNet-50), and a [`CostEngine::rebatch`] ≈ 36 µs on
//! ResNet-50 — ≈ 7× cheaper than the rebuild it replaces
//! (`paradl-bench/benches/grid.rs`).
//!
//! The engine is numerically *equivalent* to the reference model (same
//! formulas, refactored around precomputed aggregates) but not bit-identical
//! to it: sums are reassociated, so individual phase times can differ by a
//! few ULPs. Property tests in `tests/proptest_engine.rs` pin the relative
//! error below `1e-9` for every strategy kind. Within one engine the results
//! are fully deterministic, which is why the parallel and serial searches
//! agree exactly.

use crate::cluster::{ClusterCache, ClusterSpec, MAX_LOG2_PES};
use crate::comm::CommModel;
use crate::compute::{ComputeModel, LayerTimes};
use crate::config::TrainingConfig;
use crate::cost::{
    hierarchical_allreduce_time, segmented_allreduce_contention, CostEstimate, PhaseBreakdown,
};
use crate::model::Model;
use crate::strategy::{SpatialSplit, Strategy, StrategyKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Precomputed scaling-limit table of one model (paper Table 3, last
/// column): the quantities [`Strategy::validate`] re-derives by walking the
/// layer list on every call. Candidate enumeration consults this table so
/// validating a candidate is `O(1)`. Batch-invariant: the batch enters
/// [`ModelLimits::is_valid`] as an argument, never the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelLimits {
    /// Number of layers `G` (pipeline-parallel limit).
    pub num_layers: usize,
    /// `min_l F_l` (filter-parallel limit).
    pub min_filters: usize,
    /// `min_l C_l` excluding the first conv (channel-parallel limit).
    pub min_channels_after_first: usize,
    /// `min_l (W_l × H_l [× D_l])` (spatial-parallel limit).
    pub min_spatial_size: usize,
    /// Per-dimension minimum spatial extents (per-factor spatial caps).
    pub min_spatial_extents: Vec<usize>,
}

impl ModelLimits {
    /// Walks `model` once and tabulates every scaling limit.
    pub fn of(model: &Model) -> Self {
        ModelLimits {
            num_layers: model.num_layers(),
            min_filters: model.min_filters(),
            min_channels_after_first: model.min_channels_after_first(),
            min_spatial_size: model.min_spatial_size(),
            min_spatial_extents: model.min_spatial_extents(),
        }
    }

    /// `O(1)` equivalent of `strategy.validate(model, batch).is_ok()`.
    pub fn is_valid(&self, strategy: Strategy, batch: usize) -> bool {
        if strategy.total_pes() == 0 {
            return false;
        }
        match strategy {
            Strategy::Serial => true,
            Strategy::Data { p } => p <= batch,
            Strategy::Spatial { split } => split.total() <= self.min_spatial_size,
            Strategy::Filter { p } => p <= self.min_filters,
            Strategy::Channel { p } => p <= self.min_channels_after_first,
            Strategy::Pipeline { p, segments } => {
                p <= self.num_layers && segments >= 1 && segments <= batch
            }
            Strategy::DataFilter { p1, p2 } => p1 <= batch && p2 <= self.min_filters,
            Strategy::DataSpatial { p1, split } => {
                p1 <= batch && split.total() <= self.min_spatial_size
            }
        }
    }

    /// `O(1)` equivalent of [`Strategy::max_pes`].
    pub fn max_pes(&self, batch: usize, kind: StrategyKind) -> usize {
        match kind {
            StrategyKind::Serial => 1,
            StrategyKind::Data => batch,
            StrategyKind::Spatial => self.min_spatial_size,
            StrategyKind::Filter => self.min_filters,
            StrategyKind::Channel => self.min_channels_after_first,
            StrategyKind::Pipeline => self.num_layers,
            // Saturating: a hostile batch (e.g. `usize::MAX`) must clamp,
            // not overflow — the result is only ever min'ed against budgets.
            StrategyKind::DataFilter => batch.saturating_mul(self.min_filters),
            StrategyKind::DataSpatial => batch.saturating_mul(self.min_spatial_size),
        }
    }
}

/// Why a [`CostEngine`] refused to build. Degenerate problems fail here,
/// at construction, with a diagnostic — instead of propagating NaN/Inf (or
/// a divide-by-zero panic) into every ranking computed from the tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The training configuration failed
    /// [`TrainingConfig::validate`] (e.g. a zero batch size, which would
    /// divide by zero in the iteration count).
    Config(String),
    /// A precomputed table entry came out non-finite — typically a
    /// zero/NaN device rate or link parameter turning a layer time or
    /// collective time into Inf/NaN.
    NonFinite {
        /// Which table the bad entry was found in.
        table: &'static str,
        /// Which entry, and what value it held.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid config: {e}"),
            EngineError::NonFinite { table, detail } => {
                write!(f, "non-finite value in engine table {table:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Batch-invariant communication coefficients of one candidate on one
/// (model, cluster) pair, produced by [`CostEngine::comm_prep`] and consumed
/// by [`CostEngine::comm_time_prepped`]. The field meaning is per strategy
/// family (see `comm_prep`); unused fields are zero. The grid sweep
/// tabulates one coefficient column per (model, cluster) pair, aligned with
/// the model's candidate superset, so the per-candidate evaluation of every
/// batch's cell is reduced to a handful of flops. Every batch-dependent
/// communication term of the cost model is in batch-last form
/// `fixed + batch · per_sample`, so four coefficients (one 32-byte row)
/// reconstruct any family's exact time with no per-candidate division
/// (the pipeline family keeps one, by the cell batch).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CommCoef {
    /// Gradient-exchange collective time (the `*_allreduce` value), or the
    /// pipeline dataset prefactor `2·D·(p + s − 2)`.
    pub(crate) a: f64,
    /// Fixed latency part: halo `pairs·2·p2p(0)`, collective
    /// `collective_layers·α`, or the pipeline effective-link α.
    pub(crate) b: f64,
    /// The per-sample slope the batch multiplies (`halo_per_sample` /
    /// `collective_per_sample` / `boundary_per_sample`).
    pub(crate) c: f64,
    /// Strategy-derived scale: the collective families' `3·(p − 1)`, or
    /// the pipeline depth `p` (`> 1` flags a communicating pipeline).
    pub(crate) d: f64,
}

/// The per-split-mask index into the halo aggregate tables: one bit per
/// spatial dimension that is actually split (shared by
/// [`CostEngine::halo_time`] and [`CostEngine::comm_prep`]).
#[inline]
fn halo_mask(split: SpatialSplit) -> usize {
    (usize::from(split.pw > 1))
        | (usize::from(split.ph > 1) << 1)
        | (usize::from(split.pd > 1) << 2)
}

/// Batch-invariant aggregates of one pipeline depth `p`: the compute and
/// boundary quantities of the balanced layer groups. The per-stage memory is
/// *not* here — it depends on the batch and lives in `CostEngine::pipe_mem`,
/// re-derived by `rebatch` from [`EngineCore::pipe_mem_parts`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct PipelineAgg {
    /// Bottleneck per-sample forward time `max_Gi Σ FW_l`.
    max_fw: f64,
    /// Bottleneck per-sample backward time `max_Gi Σ BW_l`.
    max_bw: f64,
    /// Bottleneck per-iteration weight-update time `max_Gi Σ WU_l`.
    max_wu: f64,
    /// Largest boundary activation `max_i |y_{Gi}|` (elements), 0 when the
    /// pipeline has a single stage.
    max_boundary_act: f64,
    /// Whether any stage boundary exists (`groups > 1`).
    has_boundary: bool,
}

/// Replica of [`Model::balanced_pipeline_groups`] operating on a flat
/// per-layer FLOP array (same greedy algorithm, same accumulation order, so
/// the groupings are identical) without re-querying layer shapes. FLOPs do
/// not depend on the batch, so neither do the groupings — which is what
/// makes the per-group memory parts batch-invariant.
fn balanced_groups(flops: &[u64], p: usize) -> Vec<std::ops::Range<usize>> {
    let p = p.clamp(1, flops.len().max(1));
    let total: u64 = flops.iter().sum();
    let target = total as f64 / p as f64;
    let mut groups = Vec::with_capacity(p);
    let mut start = 0usize;
    let mut acc = 0f64;
    for (i, &f) in flops.iter().enumerate() {
        acc += f as f64;
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

/// Memoized gradient-exchange collective times, keyed by power-of-two
/// communicator sizes. Entry `[i]` (or `[i][j]`) holds the time for
/// `p = 2^i` (and group size `p2 = 2^j`); non-power-of-two sizes use the
/// closed-form fallback. Batch-invariant: the exchanged buffer is the weight
/// gradient, whose size is `Σ|w|·δ` regardless of the batch.
#[derive(Debug, Clone)]
struct CollectiveTables {
    /// `flat[i]`: Allreduce of the full weight buffer over `2^i` PEs
    /// (data / spatial gradient exchange).
    flat: Vec<f64>,
    /// `df[i][j]`: segmented inter-group Allreduce of the `|w|/2^j` shard
    /// over `2^i` groups (data+filter gradient exchange).
    df: Vec<Vec<f64>>,
    /// `ds[i][j]`: hierarchical (leader-based) Allreduce over `2^i` groups of
    /// `2^j` PEs (data+spatial gradient exchange).
    ds: Vec<Vec<f64>>,
}

/// The batch-invariant tables of a [`CostEngine`], shared behind an
/// [`Arc`] so [`CostEngine::rebatched`] siblings (one per batch of a grid
/// sweep) cost one pointer copy instead of re-tabulating — or re-cloning —
/// any of this.
///
/// Opaque outside this module: the only things callers can do with a core
/// are obtain one from a built engine ([`CostEngine::core_handle`]), stash
/// it (e.g. in an [`EngineCache`]), and hydrate a new engine from it with
/// [`CostEngine::from_core`]. A core is valid for exactly the
/// (model, device, cluster, `bytes_per_item`, `memory_reuse`) tuple it was
/// built from — `batch_size`, `dataset_size` and `epochs` are *not* baked
/// in (they are read from the engine's owned config at query time), which
/// is what [`engine_fingerprint`] encodes.
#[derive(Debug)]
pub struct EngineCore {
    /// Scaling limits (model-only).
    limits: ModelLimits,
    /// Per-layer `FW`/`BW`/`WU` tables (model × device only).
    times: LayerTimes,
    /// `Σ_l (FW_l + BW_l)` per sample.
    fw_bw_per_sample: f64,
    /// `Σ_l WU_l` per iteration.
    wu_per_iteration: f64,
    /// `Σ_l |w_l| · δ` in bytes (the gradient-exchange buffer).
    total_weight_bytes: f64,
    /// `Σ_l (|x_l| + |y_l|)` in elements (memory model; multiplied by the
    /// batch at query time).
    act_io_sum: f64,
    /// `Σ_l |w_l|` in elements (memory model).
    weight_sum: f64,
    /// `Σ_l |bi_l|` in elements (memory model).
    bias_sum: f64,
    /// `Σ_{l < G-1} |y_l|`: activation elements feeding the layer-wise
    /// collectives (no Allgather after the last layer).
    act_out_except_last: f64,
    /// Number of layers contributing layer-wise collectives (`G − 1`).
    collective_layers: f64,
    /// `halo_pairs[mask]`: number of layers with a non-zero halo when the
    /// spatial dimensions in `mask` (bit 0 = width, 1 = height, 2 = depth)
    /// are split.
    halo_pairs: [f64; 8],
    /// `halo_elems[mask]`: `Σ_l (halo(x_l) + halo(dL/dy_l))` elements for the
    /// same masks.
    halo_elems: [f64; 8],
    /// `pipeline[p-1]`: batch-invariant aggregates of the balanced `p`-stage
    /// pipeline.
    pipeline: Vec<PipelineAgg>,
    /// Flat triangular table of per-stage memory parts: for depth `p`, the
    /// `p` entries starting at offset `p(p-1)/2` hold each stage's
    /// `(Σ(|x|+|y|), Σ(2|w|+|bi|))` element pair; the batch-dependent stage
    /// memory is `2·B·act + static`, re-maximized by [`CostEngine::rebatch`].
    pipe_mem_parts: Vec<(f64, f64)>,
    /// Memoized gradient-exchange collectives.
    tables: CollectiveTables,
    /// `γ · δ`: the factor applied to raw memory element counts.
    gamma_delta: f64,
}

impl EngineCore {
    /// Sweeps every tabulated f64 for finiteness, so a degenerate spec
    /// (zero device rates, NaN link parameters, …) fails construction with
    /// a named table instead of poisoning every downstream ranking.
    fn verify_finite(&self) -> Result<(), EngineError> {
        fn check(
            table: &'static str,
            values: impl IntoIterator<Item = f64>,
        ) -> Result<(), EngineError> {
            for (i, v) in values.into_iter().enumerate() {
                if !v.is_finite() {
                    return Err(EngineError::NonFinite {
                        table,
                        detail: format!("entry {i} is {v}"),
                    });
                }
            }
            Ok(())
        }
        let t = &self.times;
        check("layer_times", t.forward.iter().chain(&t.backward).chain(&t.weight_update).copied())?;
        check(
            "aggregates",
            [
                self.fw_bw_per_sample,
                self.wu_per_iteration,
                self.total_weight_bytes,
                self.act_io_sum,
                self.weight_sum,
                self.bias_sum,
                self.act_out_except_last,
                self.collective_layers,
                self.gamma_delta,
            ],
        )?;
        check("halo", self.halo_pairs.iter().chain(&self.halo_elems).copied())?;
        check(
            "pipeline",
            self.pipeline.iter().flat_map(|a| [a.max_fw, a.max_bw, a.max_wu, a.max_boundary_act]),
        )?;
        check("pipe_mem_parts", self.pipe_mem_parts.iter().flat_map(|&(act, stat)| [act, stat]))?;
        check(
            "collectives",
            self.tables
                .flat
                .iter()
                .chain(self.tables.df.iter().flatten())
                .chain(self.tables.ds.iter().flatten())
                .copied(),
        )?;
        Ok(())
    }
}

/// The precomputed cost engine for one (model, device, cluster, config)
/// problem. See the [module docs](crate::engine) for what is tabulated and
/// which tables are batch-invariant; all per-candidate queries are `O(1)`
/// and allocation-free.
#[derive(Debug, Clone)]
pub struct CostEngine<'a> {
    model: &'a Model,
    cluster: &'a ClusterSpec,
    /// Batch-dependent: `config.batch_size` is the only field
    /// [`CostEngine::rebatch`] rewrites (everything else in the config feeds
    /// the batch-invariant core).
    config: TrainingConfig,
    /// Batch-invariant tables, `Arc`-shared between rebatched siblings.
    core: Arc<EngineCore>,
    /// Batch-dependent: `pipe_mem[p-1]` is the raw (pre-`γδ`) memory of the
    /// largest stage of the balanced `p`-stage pipeline at the current batch.
    pipe_mem: Vec<f64>,
    /// Batch-dependent: cached `config.iterations_per_epoch()` (the
    /// estimate hot path reads it several times per candidate).
    iters: usize,
    /// `iters` as `f64`.
    iters_f: f64,
}

impl<'a> CostEngine<'a> {
    /// Builds the engine: one `O(layers²)` precomputation pass (the quadratic
    /// part is the per-depth pipeline table; everything else is linear),
    /// deriving the topology tables from a private [`ClusterCache`]. When
    /// building several engines on the same cluster, build the cache once
    /// and use [`CostEngine::with_cache`] instead.
    ///
    /// Errors instead of building when the config is invalid (zero batch,
    /// zero dataset, …) or when any precomputed table entry comes out
    /// non-finite — see [`EngineError`].
    pub fn new<C: ComputeModel + ?Sized>(
        model: &'a Model,
        device: &C,
        cluster: &'a ClusterSpec,
        config: TrainingConfig,
    ) -> Result<Self, EngineError> {
        Self::with_cache(model, device, cluster, config, &ClusterCache::new(cluster))
    }

    /// Like [`CostEngine::new`], but reuses a (typically
    /// [`Arc`]-shared) [`ClusterCache`] of `cluster`'s topology-derived
    /// communication models, so the collective tables skip the per-engine
    /// model derivation. Produces byte-for-byte the same engine as
    /// [`CostEngine::new`] — the cache holds models, not times.
    pub fn with_cache<C: ComputeModel + ?Sized>(
        model: &'a Model,
        device: &C,
        cluster: &'a ClusterSpec,
        config: TrainingConfig,
        cache: &ClusterCache,
    ) -> Result<Self, EngineError> {
        debug_assert_eq!(cache.cluster(), cluster, "ClusterCache reused across clusters");
        // Validate *before* any arithmetic: `rebatch` below divides by the
        // batch size, and a zero batch must be a typed error, not a panic.
        config.validate().map_err(EngineError::Config)?;
        let times = LayerTimes::tabulate(model, device);
        let fw_bw_per_sample = times.fw_bw_per_sample();
        let wu_per_iteration = times.wu_per_iteration();
        let delta = config.bytes_per_item;
        let total_weight_bytes = model.total_weights() as f64 * delta;

        // One per-layer tensor-shape pass: `input_size`/`output_size` allocate
        // internally, so everything downstream (aggregates, pipeline tables)
        // reads these flat arrays instead of re-querying the layers.
        let g = model.num_layers();
        let in_sizes: Vec<f64> = model.layers.iter().map(|l| l.input_size() as f64).collect();
        let out_sizes: Vec<f64> = model.layers.iter().map(|l| l.output_size() as f64).collect();
        let weights: Vec<f64> = model.layers.iter().map(|l| l.weight_count() as f64).collect();
        let biases: Vec<f64> = model.layers.iter().map(|l| l.bias_count() as f64).collect();

        let act_io_sum: f64 = in_sizes.iter().zip(&out_sizes).map(|(i, o)| i + o).sum();
        let weight_sum: f64 = weights.iter().sum();
        let bias_sum: f64 = biases.iter().sum();
        let act_out_except_last: f64 = out_sizes.iter().take(g.saturating_sub(1)).sum();

        // Halo aggregates per split-dimension mask. The exchanged halo volume
        // only depends on *which* dimensions are split (not how many ways),
        // so 8 masks cover every possible SpatialSplit.
        let mut halo_pairs = [0.0f64; 8];
        let mut halo_elems = [0.0f64; 8];
        for mask in 0usize..8 {
            let part = |bit: usize| if mask & bit != 0 { 2 } else { 1 };
            let splits = [part(1), part(2), part(4)];
            for l in &model.layers {
                let hx = l.halo_size(&splits[..l.spatial_dims().min(3)]) as f64;
                if hx == 0.0 {
                    continue;
                }
                let hdy = hx * (l.output_size() as f64 / l.input_size().max(1) as f64);
                halo_pairs[mask] += 1.0;
                halo_elems[mask] += hx + hdy;
            }
        }

        // Pipeline aggregates for every depth 1..=G. The balanced grouping is
        // recomputed from a flat FLOP array with the exact greedy algorithm of
        // `Model::balanced_pipeline_groups`, and all per-group sums become
        // prefix-sum differences — no per-depth allocation or layer re-walk.
        // The per-group memory is kept as batch-invariant (activation,
        // static) element pairs so `rebatch` can re-maximize without
        // re-deriving groups.
        let flops: Vec<u64> =
            model.layers.iter().map(|l| l.flops_forward() + l.flops_backward()).collect();
        let prefix = |xs: &dyn Fn(usize) -> f64| -> Vec<f64> {
            let mut acc = 0.0;
            let mut out = Vec::with_capacity(g + 1);
            out.push(0.0);
            for i in 0..g {
                acc += xs(i);
                out.push(acc);
            }
            out
        };
        let fw_prefix = prefix(&|i| times.forward[i]);
        let bw_prefix = prefix(&|i| times.backward[i]);
        let wu_prefix = prefix(&|i| times.weight_update[i]);
        let act_prefix = prefix(&|i| in_sizes[i] + out_sizes[i]);
        let static_prefix = prefix(&|i| 2.0 * weights[i] + biases[i]);
        let range_sum = |pfx: &[f64], r: &std::ops::Range<usize>| pfx[r.end] - pfx[r.start];

        let mut pipeline = Vec::with_capacity(g);
        let mut pipe_mem_parts = Vec::with_capacity(g * (g + 1) / 2);
        for p in 1..=g {
            let groups = balanced_groups(&flops, p);
            let mut agg = PipelineAgg { has_boundary: groups.len() > 1, ..Default::default() };
            for (gi, range) in groups.iter().enumerate() {
                agg.max_fw = agg.max_fw.max(range_sum(&fw_prefix, range));
                agg.max_bw = agg.max_bw.max(range_sum(&bw_prefix, range));
                agg.max_wu = agg.max_wu.max(range_sum(&wu_prefix, range));
                if gi + 1 < groups.len() {
                    agg.max_boundary_act = agg.max_boundary_act.max(out_sizes[range.end - 1]);
                }
                pipe_mem_parts
                    .push((range_sum(&act_prefix, range), range_sum(&static_prefix, range)));
            }
            pipeline.push(agg);
        }

        let tables = CollectiveTables::build(cache, total_weight_bytes);

        let core = EngineCore {
            limits: ModelLimits::of(model),
            times,
            fw_bw_per_sample,
            wu_per_iteration,
            total_weight_bytes,
            act_io_sum,
            weight_sum,
            bias_sum,
            act_out_except_last,
            collective_layers: g.saturating_sub(1) as f64,
            halo_pairs,
            halo_elems,
            pipeline,
            pipe_mem_parts,
            tables,
            gamma_delta: config.memory_reuse * delta,
        };
        core.verify_finite()?;
        let mut engine = CostEngine {
            model,
            cluster,
            config,
            core: Arc::new(core),
            pipe_mem: vec![0.0; g],
            iters: 0,
            iters_f: 0.0,
        };
        // Fill the batch-dependent pipeline-memory table through the same
        // code path `rebatch` uses, so fresh and rebatched engines are
        // byte-for-byte identical.
        engine.rebatch(config.batch_size);
        Ok(engine)
    }

    /// Switches the engine to a new global mini-batch `batch`, rewriting
    /// only the batch-dependent tables: the stored `batch_size` and the
    /// per-depth pipeline stage memory (re-maximized from the precomputed
    /// per-group `(activation, static)` pairs). `O(layers²)` float
    /// operations, zero allocation, and no device, layer or topology
    /// queries — a small fraction of a full [`CostEngine::new`].
    ///
    /// The result is byte-for-byte identical to building a fresh engine
    /// whose config differs only in `batch_size` (property-tested in
    /// `tests/proptest_engine.rs`).
    pub fn rebatch(&mut self, batch: usize) {
        self.config.batch_size = batch;
        self.iters = self.config.iterations_per_epoch();
        self.iters_f = self.iters as f64;
        let b = batch as f64;
        let mut off = 0usize;
        for (depth0, slot) in self.pipe_mem.iter_mut().enumerate() {
            let groups = depth0 + 1; // depth p has exactly p balanced groups
            let mut mem = 0.0f64;
            for &(act, stat) in &self.core.pipe_mem_parts[off..off + groups] {
                mem = mem.max(2.0 * b * act + stat);
            }
            *slot = mem;
            off += groups;
        }
    }

    /// A sibling engine at a different global mini-batch, sharing every
    /// batch-invariant table with `self` through the [`Arc`]-held core
    /// (the clone copies one pointer and the `O(layers)` pipeline-memory
    /// vector, then [`CostEngine::rebatch`]es it).
    pub fn rebatched(&self, batch: usize) -> Self {
        let mut sibling = self.clone();
        sibling.rebatch(batch);
        sibling
    }

    /// A shared handle to this engine's batch-invariant core, suitable for
    /// stashing in an [`EngineCache`] and later hydrating a fresh engine
    /// with [`CostEngine::from_core`] — skipping the whole `O(layers²)`
    /// precomputation pass.
    pub fn core_handle(&self) -> Arc<EngineCore> {
        Arc::clone(&self.core)
    }

    /// Hydrates an engine from a previously built core, skipping the
    /// precomputation pass entirely (no device queries — the device model
    /// is already baked into the core's tables). The batch-dependent tables
    /// are filled through the same [`CostEngine::rebatch`] path
    /// [`CostEngine::with_cache`] uses, so the result is **byte-for-byte
    /// identical** to a fresh build at `config`.
    ///
    /// Contract: `core` must have been built for this `model`, this
    /// `cluster`, the same device, and a config with the same
    /// `bytes_per_item` and `memory_reuse` — i.e. the same
    /// [`engine_fingerprint`]. `batch_size`, `dataset_size` and `epochs`
    /// may differ freely (they are not baked into any core table).
    ///
    /// Errors when `config` is invalid (the core's tables are known-finite
    /// by construction, so that is the only way hydration can fail).
    pub fn from_core(
        model: &'a Model,
        cluster: &'a ClusterSpec,
        config: TrainingConfig,
        core: Arc<EngineCore>,
    ) -> Result<Self, EngineError> {
        config.validate().map_err(EngineError::Config)?;
        debug_assert_eq!(core.limits, ModelLimits::of(model), "core reused across models");
        debug_assert_eq!(
            core.gamma_delta.to_bits(),
            (config.memory_reuse * config.bytes_per_item).to_bits(),
            "core reused across γ·δ"
        );
        let g = core.pipeline.len();
        let mut engine = CostEngine {
            model,
            cluster,
            config,
            core,
            pipe_mem: vec![0.0; g],
            iters: 0,
            iters_f: 0.0,
        };
        engine.rebatch(config.batch_size);
        Ok(engine)
    }

    /// The model this engine was built for.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// The cluster this engine was built for.
    pub fn cluster(&self) -> &ClusterSpec {
        self.cluster
    }

    /// The training configuration this engine was built for (its
    /// `batch_size` tracks the latest [`CostEngine::rebatch`]).
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// The precomputed scaling-limit table.
    pub fn limits(&self) -> &ModelLimits {
        &self.core.limits
    }

    /// The per-layer compute-time tables.
    pub fn layer_times(&self) -> &LayerTimes {
        &self.core.times
    }

    /// Maximum memory (bytes) required on one PE, `O(1)` equivalent of
    /// [`crate::memory::memory_per_pe`].
    pub fn memory_per_pe(&self, strategy: Strategy) -> f64 {
        let b = self.config.batch_size as f64;
        let raw = match strategy {
            Strategy::Serial => self.mem_raw(1.0, 1.0, b),
            Strategy::Data { p } => self.mem_raw(1.0, 1.0, b / p as f64),
            Strategy::Spatial { split } => self.mem_raw(split.total() as f64, 1.0, b),
            Strategy::Filter { p } | Strategy::Channel { p } => self.mem_raw(1.0, p as f64, b),
            Strategy::Pipeline { p, .. } => self.pipe_mem[self.depth_index(p)],
            Strategy::DataFilter { p1, p2 } => self.mem_raw(p1 as f64, p2 as f64, b),
            Strategy::DataSpatial { p1, split } => {
                self.mem_raw((p1 * split.total()) as f64, 1.0, b)
            }
        };
        self.core.gamma_delta * raw
    }

    /// Full cost estimate, `O(1)` equivalent of [`crate::cost::estimate`].
    pub fn estimate(&self, strategy: Strategy) -> CostEstimate {
        let mem = self.memory_per_pe(strategy);
        self.estimate_with_memory(strategy, mem)
    }

    /// Like [`CostEngine::estimate`] but reuses a per-PE memory value the
    /// caller already computed (the search memory-prunes before costing).
    pub fn estimate_with_memory(
        &self,
        strategy: Strategy,
        memory_per_pe_bytes: f64,
    ) -> CostEstimate {
        let b = self.config.batch_size as f64;
        let iters = self.iters_f;

        let mut breakdown = PhaseBreakdown::default();
        let (fb, wu) = self.compute_terms(strategy);
        breakdown.forward_backward = fb;
        breakdown.weight_update = wu;

        match strategy {
            Strategy::Serial => {}
            Strategy::Data { p } => {
                breakdown.gradient_exchange = iters * self.weight_allreduce(p);
            }
            Strategy::Spatial { split } => {
                let p = split.total();
                breakdown.gradient_exchange = iters * self.weight_allreduce(p);
                let comm = self.cluster.comm_model(p);
                breakdown.halo_exchange = iters * self.halo_time(&comm, split, 1.0, b);
            }
            Strategy::Filter { p } | Strategy::Channel { p } => {
                let comm = self.cluster.comm_model(p);
                breakdown.fb_collective = iters * self.layerwise_collective(&comm, p, p, b);
            }
            Strategy::Pipeline { p, segments } => {
                breakdown.pipeline_p2p = self.pipeline_p2p(p, segments);
            }
            Strategy::DataFilter { p1, p2 } => {
                let intra = self.cluster.comm_model(p2.min(self.cluster.gpus_per_node));
                breakdown.fb_collective = iters * self.layerwise_collective(&intra, p2, p1 * p2, b);
                breakdown.gradient_exchange = iters * self.df_allreduce(p1, p2);
            }
            Strategy::DataSpatial { p1, split } => {
                let p2 = split.total();
                let intra = self.cluster.comm_model(p2.min(self.cluster.gpus_per_node));
                breakdown.halo_exchange = iters * self.halo_time(&intra, split, p1 as f64, b);
                breakdown.gradient_exchange = iters * self.ds_allreduce(p1, p2);
            }
        }

        CostEstimate { strategy, per_epoch: breakdown, iterations: self.iters, memory_per_pe_bytes }
    }

    /// Admissible lower bound on the per-epoch time of `strategy`: its
    /// compute-only time (forward/backward + weight update), computed with
    /// the exact expressions [`CostEngine::estimate`] uses, so
    /// `lower_bound(s) ≤ estimate(s).epoch_time()` always holds (every
    /// communication term of the cost model is non-negative). The kernel's
    /// seed panel ([`crate::kernel`]) picks its seeds by this bound.
    pub fn lower_bound(&self, strategy: Strategy) -> f64 {
        let (fb, wu) = self.compute_terms(strategy);
        fb + wu
    }

    /// Fused prep pass: `(memory_per_pe, lower_bound)` from a single
    /// strategy dispatch. Bit-identical to calling [`CostEngine::memory_per_pe`]
    /// and [`CostEngine::lower_bound`] separately (same sub-expressions in
    /// the same order), but the SoA prep loop in [`crate::grid`] only pays
    /// one `match` per candidate.
    pub fn prep_terms(&self, strategy: Strategy) -> (f64, f64) {
        let core = &*self.core;
        let b = self.config.batch_size as f64;
        let d = self.config.dataset_size as f64;
        let iters = self.iters_f;
        match strategy {
            Strategy::Serial => (
                core.gamma_delta * self.mem_raw(1.0, 1.0, b),
                d * core.fw_bw_per_sample + iters * core.wu_per_iteration,
            ),
            Strategy::Data { p } => (
                core.gamma_delta * self.mem_raw(1.0, 1.0, b / p as f64),
                d / p as f64 * core.fw_bw_per_sample + iters * core.wu_per_iteration,
            ),
            Strategy::Spatial { split } => (
                core.gamma_delta * self.mem_raw(split.total() as f64, 1.0, b),
                d / split.total() as f64 * core.fw_bw_per_sample + iters * core.wu_per_iteration,
            ),
            Strategy::Filter { p } | Strategy::Channel { p } => {
                let pf = p as f64;
                (
                    core.gamma_delta * self.mem_raw(1.0, pf, b),
                    d / pf * core.fw_bw_per_sample + iters / pf * core.wu_per_iteration,
                )
            }
            Strategy::Pipeline { p, segments } => {
                let agg = self.pipeline_agg(p);
                let s = segments.max(1) as f64;
                let pf = p as f64;
                (
                    core.gamma_delta * self.pipe_mem[self.depth_index(p)],
                    d * (pf + s - 1.0) / s * (agg.max_fw + agg.max_bw) + iters * agg.max_wu,
                )
            }
            Strategy::DataFilter { p1, p2 } => {
                let p = (p1 * p2) as f64;
                (
                    core.gamma_delta * self.mem_raw(p1 as f64, p2 as f64, b),
                    d / p * core.fw_bw_per_sample + iters / p2 as f64 * core.wu_per_iteration,
                )
            }
            Strategy::DataSpatial { p1, split } => {
                let p = (p1 * split.total()) as f64;
                (
                    core.gamma_delta * self.mem_raw(p, 1.0, b),
                    d / p * core.fw_bw_per_sample + iters * core.wu_per_iteration,
                )
            }
        }
    }

    /// Scalar epoch time of `strategy`: bit-identical to
    /// `estimate(strategy).epoch_time()` without materialising the
    /// [`CostEstimate`]. The candidate-evaluation kernel in [`crate::kernel`]
    /// uses this to rank survivors and only builds full estimates for the
    /// handful of candidates that enter the heap or a budget slot.
    pub fn epoch_time(&self, strategy: Strategy) -> f64 {
        let (fb, wu) = self.compute_terms(strategy);
        (fb + wu) + self.comm_time(strategy)
    }

    /// The communication part of `epoch_time`: bit-identical to
    /// `estimate(strategy).per_epoch.communication()`. Exactness hinges on
    /// `x + 0.0 == x` for every non-negative IEEE-754 `x`: the four-term
    /// left-associated sum in [`crate::cost::PhaseBreakdown::communication`]
    /// collapses to the per-family non-zero terms in the same order.
    pub(crate) fn comm_time(&self, strategy: Strategy) -> f64 {
        let b = self.config.batch_size as f64;
        let iters = self.iters_f;
        match strategy {
            Strategy::Serial => 0.0,
            Strategy::Data { p } => iters * self.weight_allreduce(p),
            Strategy::Spatial { split } => {
                let p = split.total();
                let ge = iters * self.weight_allreduce(p);
                let comm = self.cluster.comm_model(p);
                ge + iters * self.halo_time(&comm, split, 1.0, b)
            }
            Strategy::Filter { p } | Strategy::Channel { p } => {
                let comm = self.cluster.comm_model(p);
                iters * self.layerwise_collective(&comm, p, p, b)
            }
            Strategy::Pipeline { p, segments } => self.pipeline_p2p(p, segments),
            Strategy::DataFilter { p1, p2 } => {
                let intra = self.cluster.comm_model(p2.min(self.cluster.gpus_per_node));
                let fbcoll = iters * self.layerwise_collective(&intra, p2, p1 * p2, b);
                let ge = iters * self.df_allreduce(p1, p2);
                ge + fbcoll
            }
            Strategy::DataSpatial { p1, split } => {
                let p2 = split.total();
                let intra = self.cluster.comm_model(p2.min(self.cluster.gpus_per_node));
                let halo = iters * self.halo_time(&intra, split, p1 as f64, b);
                let ge = iters * self.ds_allreduce(p1, p2);
                ge + halo
            }
        }
    }

    /// Tabulates the batch-invariant communication coefficients of
    /// `strategy` for [`CostEngine::comm_time_prepped`]. Every value is a
    /// function of the model core, the cluster and the strategy only —
    /// never of the batch — so one coefficient pass per (model, cluster)
    /// pair serves every batch of a grid sweep (the whole point: the
    /// collective/link derivations behind `comm_time` are the dominant
    /// per-candidate cost, and they are re-paid per batch without this).
    ///
    /// Per family: `a` is the gradient-exchange collective time
    /// (`weight_allreduce` / `df_allreduce` / `ds_allreduce`); `b` the
    /// fixed latency part of the batch-dependent term; `c` the per-sample
    /// slope the batch multiplies (computed by the exact shared helpers
    /// `halo_per_sample` / `collective_per_sample` / `boundary_per_sample`,
    /// so the stored value is the bit-exact sub-expression of the direct
    /// paths); `d` the collective families' `3·(p − 1)` scale or the
    /// pipeline depth. `Serial` doesn't communicate (all-zero
    /// coefficients).
    pub(crate) fn comm_prep(&self, strategy: Strategy) -> CommCoef {
        let core = &*self.core;
        let zero = CommCoef::default();
        match strategy {
            Strategy::Serial => zero,
            Strategy::Pipeline { p, segments } => {
                // Zero coefficients encode the `p ≤ 1` (no communication)
                // case; `d = p ≥ 2` flags the real formula. A boundary-less
                // pipeline zeroes α and the per-sample slope so the
                // reconstructed `max_p2p` collapses to the same `0.0` the
                // direct path takes.
                if p <= 1 {
                    return zero;
                }
                let agg = self.pipeline_agg(p);
                let d = self.config.dataset_size as f64;
                let s = segments.max(1) as f64;
                let comm = self.cluster.comm_model(p.min(self.cluster.gpus_per_node.max(2)));
                let (alpha, per_sample) = if agg.has_boundary {
                    let eff = comm.link.with_contention(comm.contention);
                    (eff.alpha, self.boundary_per_sample(agg.max_boundary_act, s, eff.beta))
                } else {
                    (0.0, 0.0)
                };
                CommCoef { a: 2.0 * d * (p as f64 + s - 2.0), b: alpha, c: per_sample, d: p as f64 }
            }
            Strategy::Data { p } => CommCoef { a: self.weight_allreduce(p), ..zero },
            Strategy::Spatial { split } => {
                let p = split.total();
                let comm = self.cluster.comm_model(p);
                let mask = halo_mask(split);
                CommCoef {
                    a: self.weight_allreduce(p),
                    b: core.halo_pairs[mask] * 2.0 * comm.p2p(0.0),
                    c: self.halo_per_sample(&comm, mask, 1.0),
                    ..zero
                }
            }
            Strategy::Filter { p } | Strategy::Channel { p } => {
                let comm = self.cluster.comm_model(p);
                CommCoef {
                    a: 0.0,
                    b: core.collective_layers * comm.link.alpha,
                    c: self.collective_per_sample(&comm, p),
                    d: 3.0 * (p as f64 - 1.0),
                }
            }
            Strategy::DataFilter { p1, p2 } => {
                let intra = self.cluster.comm_model(p2.min(self.cluster.gpus_per_node));
                CommCoef {
                    a: self.df_allreduce(p1, p2),
                    b: core.collective_layers * intra.link.alpha,
                    c: self.collective_per_sample(&intra, p1 * p2),
                    d: 3.0 * (p2 as f64 - 1.0),
                }
            }
            Strategy::DataSpatial { p1, split } => {
                let p2 = split.total();
                let intra = self.cluster.comm_model(p2.min(self.cluster.gpus_per_node));
                let mask = halo_mask(split);
                CommCoef {
                    a: self.ds_allreduce(p1, p2),
                    b: core.halo_pairs[mask] * 2.0 * intra.p2p(0.0),
                    c: self.halo_per_sample(&intra, mask, p1 as f64),
                    ..zero
                }
            }
        }
    }

    /// [`CostEngine::comm_time`] reconstructed from precomputed
    /// coefficients: bit-identical (the batch-invariant sub-terms are the
    /// stored *values* of the exact sub-expressions `comm_time` computes,
    /// and the remaining batch-dependent arithmetic mirrors its operation
    /// order), at a few flops per candidate instead of the full
    /// collective-model derivation. Debug builds assert the bit equality on
    /// every call, so every equivalence test crossing this path checks it
    /// for every scanned candidate.
    /// Dispatch is on the prep-row family byte ([`StrategyKind`] as `u8`),
    /// not the strategy itself, so the hot loop never loads or decodes the
    /// strategy column — every strategy-derived parameter is folded into
    /// `k` by [`CostEngine::comm_prep`]. `strategy` is a lazy accessor,
    /// only invoked by the debug-build bit-equality assert — release-mode
    /// hot loops never touch the strategy column here.
    #[inline]
    pub(crate) fn comm_time_prepped(
        &self,
        fam: u8,
        k: &CommCoef,
        strategy: impl Fn() -> Strategy,
    ) -> f64 {
        const SERIAL: u8 = StrategyKind::Serial as u8;
        const DATA: u8 = StrategyKind::Data as u8;
        const SPATIAL: u8 = StrategyKind::Spatial as u8;
        const FILTER: u8 = StrategyKind::Filter as u8;
        const CHANNEL: u8 = StrategyKind::Channel as u8;
        const PIPELINE: u8 = StrategyKind::Pipeline as u8;
        const DATA_FILTER: u8 = StrategyKind::DataFilter as u8;
        const DATA_SPATIAL: u8 = StrategyKind::DataSpatial as u8;
        let b = self.config.batch_size as f64;
        let iters = self.iters_f;
        let t = match fam {
            SERIAL => 0.0,
            DATA => iters * k.a,
            // Spatial and data+spatial share one shape: the shard divisor
            // of the per-sample halo volume is folded into `c` at prep time,
            // so both reduce to the same fused fixed-plus-slope form.
            SPATIAL | DATA_SPATIAL => {
                let ge = iters * k.a;
                let halo = 2.0 * (k.b + b * k.c);
                ge + iters * halo
            }
            FILTER | CHANNEL => iters * (k.d * (k.b + b * k.c)),
            PIPELINE => {
                // `d = p` flags a communicating pipeline (`comm_prep` stores
                // zero coefficients for `p ≤ 1`); `a` is the dataset
                // prefactor `2·D·(p + s − 2)`, `b`/`c` the effective link's
                // α and per-sample slope (zeroed for boundary-less
                // pipelines so `max_p2p` collapses to the direct path's
                // `0.0`). The one remaining division is by the cell batch.
                if k.d > 1.0 {
                    k.a / b * (k.b + b * k.c)
                } else {
                    0.0
                }
            }
            DATA_FILTER => {
                let fbcoll = iters * (k.d * (k.b + b * k.c));
                let ge = iters * k.a;
                ge + fbcoll
            }
            _ => unreachable!("family byte out of range"),
        };
        debug_assert_eq!(
            t.to_bits(),
            self.comm_time(strategy()).to_bits(),
            "prepped communication time diverged from comm_time for {}",
            strategy(),
        );
        t
    }

    /// Incremental cost estimate: like [`CostEngine::estimate`], but when
    /// `prev` is a same-kind neighbour (the sorted-superset order from
    /// [`crate::search`] places them adjacently) the sub-terms that provably
    /// cannot change are copied from `prev` instead of recomputed. Copies are
    /// bit-moves of values produced by the exact same expressions, so the
    /// result is *identical* to a fresh `estimate(next)` — equivalence is
    /// property-tested with exact `==`, stronger than the 1e-9 gate.
    ///
    /// Reuse table (terms not listed are recomputed):
    /// - `Data` → `Data`: weight-update (batch-dependent, `p`-invariant).
    /// - `Spatial` → `Spatial`: weight-update; same total also copies
    ///   forward/backward and gradient exchange; same halo mask (which dims
    ///   are split) also copies the halo term.
    /// - `Pipeline` → `Pipeline` at equal depth: weight-update (per-depth
    ///   stage aggregate, segment-invariant).
    /// - `DataFilter` → `DataFilter` at equal total: forward/backward.
    /// - `DataSpatial` → `DataSpatial`: weight-update; same total also
    ///   copies forward/backward.
    /// - `Filter`/`Channel` and every cross-kind pair: full re-estimate
    ///   (every term depends on the changed axis).
    ///
    /// `prev` must come from this engine at the current batch size (the
    /// copied terms are batch-dependent; this is the same contract as
    /// [`CostEngine::rebatch`] invalidating outstanding estimates).
    pub fn estimate_delta(&self, prev: &CostEstimate, next: Strategy) -> CostEstimate {
        let mem = self.memory_per_pe(next);
        self.estimate_delta_with_memory(prev, next, mem)
    }

    /// [`CostEngine::estimate_delta`] with a caller-computed memory value
    /// (the kernel's SoA prep columns already hold it).
    pub fn estimate_delta_with_memory(
        &self,
        prev: &CostEstimate,
        next: Strategy,
        memory_per_pe_bytes: f64,
    ) -> CostEstimate {
        debug_assert_eq!(
            prev.iterations, self.iters,
            "estimate_delta requires prev from the same engine and batch"
        );
        let core = &*self.core;
        let d = self.config.dataset_size as f64;
        let b = self.config.batch_size as f64;
        let iters = self.iters_f;
        let pe = &prev.per_epoch;
        let mut breakdown = PhaseBreakdown::default();
        match (prev.strategy, next) {
            (Strategy::Data { .. }, Strategy::Data { p }) => {
                breakdown.forward_backward = d / p as f64 * core.fw_bw_per_sample;
                breakdown.weight_update = pe.weight_update;
                breakdown.gradient_exchange = iters * self.weight_allreduce(p);
            }
            (Strategy::Spatial { split: prev_split }, Strategy::Spatial { split }) => {
                breakdown.weight_update = pe.weight_update;
                let p = split.total();
                let same_total = prev_split.total() == p;
                if same_total {
                    breakdown.forward_backward = pe.forward_backward;
                    breakdown.gradient_exchange = pe.gradient_exchange;
                } else {
                    breakdown.forward_backward = d / p as f64 * core.fw_bw_per_sample;
                    breakdown.gradient_exchange = iters * self.weight_allreduce(p);
                }
                let same_mask = (prev_split.pw > 1, prev_split.ph > 1, prev_split.pd > 1)
                    == (split.pw > 1, split.ph > 1, split.pd > 1);
                if same_total && same_mask {
                    breakdown.halo_exchange = pe.halo_exchange;
                } else {
                    let comm = self.cluster.comm_model(p);
                    breakdown.halo_exchange = iters * self.halo_time(&comm, split, 1.0, b);
                }
            }
            (Strategy::Pipeline { p: prev_p, .. }, Strategy::Pipeline { p, segments })
                if prev_p == p =>
            {
                let agg = self.pipeline_agg(p);
                let s = segments.max(1) as f64;
                let pf = p as f64;
                breakdown.forward_backward = d * (pf + s - 1.0) / s * (agg.max_fw + agg.max_bw);
                breakdown.weight_update = pe.weight_update;
                breakdown.pipeline_p2p = self.pipeline_p2p(p, segments);
            }
            (Strategy::DataFilter { p1: q1, p2: q2 }, Strategy::DataFilter { p1, p2 })
                if q1 * q2 == p1 * p2 =>
            {
                breakdown.forward_backward = pe.forward_backward;
                breakdown.weight_update = iters / p2 as f64 * core.wu_per_iteration;
                let intra = self.cluster.comm_model(p2.min(self.cluster.gpus_per_node));
                breakdown.fb_collective = iters * self.layerwise_collective(&intra, p2, p1 * p2, b);
                breakdown.gradient_exchange = iters * self.df_allreduce(p1, p2);
            }
            (
                Strategy::DataSpatial { p1: q1, split: prev_split },
                Strategy::DataSpatial { p1, split },
            ) => {
                breakdown.weight_update = pe.weight_update;
                if q1 * prev_split.total() == p1 * split.total() {
                    breakdown.forward_backward = pe.forward_backward;
                } else {
                    let p = (p1 * split.total()) as f64;
                    breakdown.forward_backward = d / p * core.fw_bw_per_sample;
                }
                let p2 = split.total();
                let intra = self.cluster.comm_model(p2.min(self.cluster.gpus_per_node));
                breakdown.halo_exchange = iters * self.halo_time(&intra, split, p1 as f64, b);
                breakdown.gradient_exchange = iters * self.ds_allreduce(p1, p2);
            }
            (_, next) => return self.estimate_with_memory(next, memory_per_pe_bytes),
        }
        CostEstimate {
            strategy: next,
            per_epoch: breakdown,
            iterations: self.iters,
            memory_per_pe_bytes,
        }
    }

    /// Forward/backward and weight-update epoch times of `strategy` — the
    /// compute part shared by [`CostEngine::estimate_with_memory`] and
    /// [`CostEngine::lower_bound`].
    fn compute_terms(&self, strategy: Strategy) -> (f64, f64) {
        let core = &*self.core;
        let d = self.config.dataset_size as f64;
        let iters = self.iters_f;
        match strategy {
            Strategy::Serial => (d * core.fw_bw_per_sample, iters * core.wu_per_iteration),
            Strategy::Data { p } => {
                (d / p as f64 * core.fw_bw_per_sample, iters * core.wu_per_iteration)
            }
            Strategy::Spatial { split } => {
                (d / split.total() as f64 * core.fw_bw_per_sample, iters * core.wu_per_iteration)
            }
            Strategy::Filter { p } | Strategy::Channel { p } => {
                let pf = p as f64;
                (d / pf * core.fw_bw_per_sample, iters / pf * core.wu_per_iteration)
            }
            Strategy::Pipeline { p, segments } => {
                let agg = self.pipeline_agg(p);
                let s = segments.max(1) as f64;
                let pf = p as f64;
                (d * (pf + s - 1.0) / s * (agg.max_fw + agg.max_bw), iters * agg.max_wu)
            }
            Strategy::DataFilter { p1, p2 } => {
                let p = (p1 * p2) as f64;
                (d / p * core.fw_bw_per_sample, iters / p2 as f64 * core.wu_per_iteration)
            }
            Strategy::DataSpatial { p1, split } => {
                let p = (p1 * split.total()) as f64;
                (d / p * core.fw_bw_per_sample, iters * core.wu_per_iteration)
            }
        }
    }

    /// `Σ_l (2·batch·(|x|+|y|)/act_div + 2|w|/weight_div + |bi|)`, factored
    /// over the precomputed element totals. The batch enters here at query
    /// time — the totals themselves are batch-invariant.
    fn mem_raw(&self, act_div: f64, weight_div: f64, batch: f64) -> f64 {
        let core = &*self.core;
        2.0 * batch * core.act_io_sum / act_div + 2.0 * core.weight_sum / weight_div + core.bias_sum
    }

    /// Clamped index of pipeline depth `p` into the per-depth tables.
    fn depth_index(&self, p: usize) -> usize {
        p.clamp(1, self.core.pipeline.len().max(1)) - 1
    }

    fn pipeline_agg(&self, p: usize) -> PipelineAgg {
        self.core.pipeline[self.depth_index(p)]
    }

    /// Flat ring/tree Allreduce of the full weight buffer
    /// (`total_weight_bytes`) over `p` PEs, memoized for power-of-two `p`.
    fn weight_allreduce(&self, p: usize) -> f64 {
        if p.is_power_of_two() {
            if let Some(&t) = self.core.tables.flat.get(p.trailing_zeros() as usize) {
                return t;
            }
        }
        self.cluster.comm_model(p).allreduce(p, self.core.total_weight_bytes)
    }

    /// Data+filter gradient exchange: segmented inter-group Allreduce of the
    /// per-group weight shard (memoized for power-of-two `p1`, `p2`).
    fn df_allreduce(&self, p1: usize, p2: usize) -> f64 {
        if p1.is_power_of_two() && p2.is_power_of_two() {
            let (i, j) = (p1.trailing_zeros() as usize, p2.trailing_zeros() as usize);
            if let Some(&t) = self.core.tables.df.get(i).and_then(|row| row.get(j)) {
                return t;
            }
        }
        CollectiveTables::df_entry(self.cluster, self.core.total_weight_bytes, p1, p2)
    }

    /// Data+spatial gradient exchange: hierarchical leader-based Allreduce
    /// (memoized for power-of-two `p1`, `p2`).
    fn ds_allreduce(&self, p1: usize, p2: usize) -> f64 {
        if p1.is_power_of_two() && p2.is_power_of_two() {
            let (i, j) = (p1.trailing_zeros() as usize, p2.trailing_zeros() as usize);
            if let Some(&t) = self.core.tables.ds.get(i).and_then(|row| row.get(j)) {
                return t;
            }
        }
        CollectiveTables::ds_entry(self.cluster, self.core.total_weight_bytes, p1, p2)
    }

    /// Batch-invariant per-sample halo bytes·β for one split mask:
    /// `halo_elems/shard · δ · β` (`shard` is `1` for `Spatial`, the data
    /// replica count `p1` for `DataSpatial`). Every batch-dependent halo
    /// term is `batch · halo_per_sample(..)`, so [`CostEngine::comm_prep`]
    /// stores this value once per candidate and the reconstruction in
    /// `comm_time_prepped` is bit-identical by sharing this expression.
    #[inline]
    fn halo_per_sample(&self, comm: &CommModel, mask: usize, shard: f64) -> f64 {
        self.core.halo_elems[mask] / shard * self.config.bytes_per_item * comm.link.beta
    }

    /// Batch-invariant per-sample collective bytes·φ·β of filter/channel
    /// parallelism: `act_out_except_last/p_total · δ · φ · β`. Shared by
    /// the direct paths and [`CostEngine::comm_prep`] for the same
    /// bit-identity-by-construction reason as `halo_per_sample`.
    #[inline]
    fn collective_per_sample(&self, comm: &CommModel, p_total: usize) -> f64 {
        self.core.act_out_except_last / p_total as f64
            * self.config.bytes_per_item
            * comm.contention
            * comm.link.beta
    }

    /// Batch-invariant per-sample boundary-activation bytes·β of pipeline
    /// parallelism: `max_boundary_act/segments · δ · β_eff`.
    #[inline]
    fn boundary_per_sample(&self, act: f64, segments: f64, beta: f64) -> f64 {
        act / segments * self.config.bytes_per_item * beta
    }

    /// Halo-exchange time for one iteration over the precomputed
    /// per-split-mask aggregates (paper Eq. 10). `shard` divides the
    /// per-sample halo volume (data replicas process `batch/shard` samples
    /// each); the batch multiplies *last*, so the whole batch-dependence is
    /// one fused multiply-add over prep-stored coefficients.
    fn halo_time(&self, comm: &CommModel, split: SpatialSplit, shard: f64, batch: f64) -> f64 {
        let core = &*self.core;
        let mask = halo_mask(split);
        2.0 * (core.halo_pairs[mask] * 2.0 * comm.p2p(0.0)
            + batch * self.halo_per_sample(comm, mask, shard))
    }

    /// Layer-wise collective time of filter/channel parallelism for one
    /// iteration (paper Eq. 15/19), over the precomputed activation total.
    /// Batch-last form, like [`CostEngine::halo_time`].
    fn layerwise_collective(&self, comm: &CommModel, p: usize, p_total: usize, batch: f64) -> f64 {
        let core = &*self.core;
        if p <= 1 {
            return 0.0;
        }
        3.0 * (p as f64 - 1.0)
            * (core.collective_layers * comm.link.alpha
                + batch * self.collective_per_sample(comm, p_total))
    }

    /// Pipeline boundary-exchange epoch time (paper Eq. 23), shared by
    /// [`CostEngine::estimate_with_memory`], [`CostEngine::comm_time`] and
    /// [`CostEngine::estimate_delta_with_memory`] so the three paths stay
    /// bit-identical by construction. Batch-last form: the per-stage p2p
    /// is `α_eff + batch · boundary_per_sample(..)`.
    fn pipeline_p2p(&self, p: usize, segments: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let agg = self.pipeline_agg(p);
        let d = self.config.dataset_size as f64;
        let b = self.config.batch_size as f64;
        let s = segments.max(1) as f64;
        let pf = p as f64;
        let comm = self.cluster.comm_model(p.min(self.cluster.gpus_per_node.max(2)));
        let max_p2p = if agg.has_boundary {
            let eff = comm.link.with_contention(comm.contention);
            eff.alpha + b * self.boundary_per_sample(agg.max_boundary_act, s, eff.beta)
        } else {
            0.0
        };
        2.0 * d * (pf + s - 2.0) / b * max_p2p
    }
}

impl CollectiveTables {
    /// Evaluates the memoized collective times from the cluster's cached
    /// communication models. Value-identical to deriving each model on the
    /// fly (the fallback entries below), since the cache stores models, not
    /// times, and both paths share the same core formulas.
    fn build(cache: &ClusterCache, weight_bytes: f64) -> Self {
        let n = MAX_LOG2_PES + 1;
        let flat: Vec<f64> =
            (0..n).map(|i| cache.pow2(i).allreduce(1 << i, weight_bytes)).collect();
        let mut df = Vec::with_capacity(n);
        let mut ds = Vec::with_capacity(n);
        for i in 0..n {
            let mut df_row = Vec::with_capacity(n);
            let mut ds_row = Vec::with_capacity(n);
            for j in 0..n {
                if i + j <= MAX_LOG2_PES {
                    df_row.push(Self::df_core(
                        cache.inter_group(i, j),
                        cache.segmented_phi(j),
                        1 << i,
                        1 << j,
                        weight_bytes,
                    ));
                    ds_row.push(Self::ds_core(
                        cache.intra(j),
                        cache.inter_group(i, j),
                        1 << i,
                        1 << j,
                        weight_bytes,
                    ));
                } else {
                    break;
                }
            }
            df.push(df_row);
            ds.push(ds_row);
        }
        CollectiveTables { flat, df, ds }
    }

    /// Data+filter gradient-exchange time from already-derived communication
    /// models: the single formula shared by the power-of-two table above and
    /// the non-power-of-two fallback below, so the two can never drift.
    fn df_core(inter: &CommModel, phi: f64, p1: usize, p2: usize, weight_bytes: f64) -> f64 {
        inter.with_contention(phi).allreduce(p1, weight_bytes / p2 as f64)
    }

    /// Data+spatial gradient-exchange time from already-derived models (see
    /// [`CollectiveTables::df_core`]).
    fn ds_core(intra: &CommModel, inter: &CommModel, p1: usize, p2: usize, bytes: f64) -> f64 {
        hierarchical_allreduce_time(intra, inter, p2, p1, bytes)
    }

    fn df_entry(cluster: &ClusterSpec, weight_bytes: f64, p1: usize, p2: usize) -> f64 {
        Self::df_core(
            &cluster.comm_model_inter_group(p1, p2),
            segmented_allreduce_contention(cluster, p2),
            p1,
            p2,
            weight_bytes,
        )
    }

    fn ds_entry(cluster: &ClusterSpec, weight_bytes: f64, p1: usize, p2: usize) -> f64 {
        Self::ds_core(
            &cluster.comm_model(p2.min(cluster.gpus_per_node)),
            &cluster.comm_model_inter_group(p1, p2),
            p1,
            p2,
            weight_bytes,
        )
    }
}

/// FNV-1a 64-bit over a byte stream — the workspace has no external hashing
/// crates, and a stable, documented hash is preferable for fingerprints that
/// cross the serve wire anyway.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable fingerprint of a cluster (device profile, shape and link
/// parameters — everything a [`ClusterCache`]'s topology tables depend on).
/// Two specs with equal `Debug` representations hash equally; `Debug` for
/// the float fields prints shortest-round-trip decimals, so distinct bit
/// patterns yield distinct strings.
pub fn cluster_fingerprint(cluster: &ClusterSpec) -> u64 {
    fnv1a(format!("{cluster:?}").into_bytes())
}

/// Stable fingerprint of the validity key of an [`EngineCore`]:
/// (model, cluster incl. device profile, `bytes_per_item`, `memory_reuse`).
/// Deliberately **excludes** `batch_size`, `dataset_size` and `epochs` —
/// cores are batch-invariant (see [`EngineCore`]), so one cached core
/// serves every batch/dataset variant of the same problem via
/// [`CostEngine::from_core`].
pub fn engine_fingerprint(model: &Model, cluster: &ClusterSpec, config: &TrainingConfig) -> u64 {
    let mut bytes = format!("{model:?}|{cluster:?}|").into_bytes();
    bytes.extend_from_slice(&config.bytes_per_item.to_bits().to_be_bytes());
    bytes.extend_from_slice(&config.memory_reuse.to_bits().to_be_bytes());
    fnv1a(bytes)
}

/// A tiny thread-safe LRU: a `Mutex`-guarded vec in recency order. Fine for
/// the capacities the serve daemon uses (tens of entries); lookups are
/// `O(len)` but each hit saves an `O(layers²)` engine build.
struct Lru<V: Clone> {
    entries: Mutex<Vec<(u64, V)>>,
    cap: usize,
}

impl<V: Clone> Lru<V> {
    fn new(cap: usize) -> Self {
        Lru { entries: Mutex::new(Vec::new()), cap }
    }

    /// Looks up `key`, promoting a hit to most-recent; on miss inserts
    /// `build()` and evicts the least-recent entry past capacity. Returns
    /// `(value, was_hit)`. With `cap == 0` the cache is disabled: every call
    /// builds fresh.
    fn get_or_insert(&self, key: u64, build: impl FnOnce() -> V) -> (V, bool) {
        self.try_get_or_insert::<std::convert::Infallible>(key, || Ok(build()))
            .unwrap_or_else(|never| match never {})
    }

    /// [`Lru::get_or_insert`] with a fallible builder: a build error
    /// propagates to the caller and nothing is inserted (a later lookup
    /// rebuilds).
    fn try_get_or_insert<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if self.cap == 0 {
            return Ok((build()?, false));
        }
        // Recover from poisoning rather than unwrap: the serve daemon runs
        // query evaluation under `catch_unwind`, and a panic while this lock
        // is held must cost that one request, not brick the cache (and with
        // it every future cached query) for the daemon's lifetime. The
        // guarded Vec is structurally valid at every await-free step above,
        // so the recovered state is safe to keep using.
        let mut entries = self.entries.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
            let entry = entries.remove(pos);
            let value = entry.1.clone();
            entries.insert(0, entry);
            return Ok((value, true));
        }
        // Build while holding the lock: concurrent requests for the same key
        // then build once, and the daemon's batcher (the only heavy caller)
        // is single-threaded anyway.
        let value = build()?;
        entries.insert(0, (key, value.clone()));
        entries.truncate(self.cap);
        Ok((value, false))
    }

    /// Whether `key` is cached, without promoting it.
    fn contains(&self, key: u64) -> bool {
        self.cap != 0
            && self
                .entries
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .iter()
                .any(|(k, _)| *k == key)
    }
}

/// Cumulative hit/miss counters of an [`EngineCache`] (cores and cluster
/// caches pooled together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
}

/// A thread-safe LRU of [`EngineCore`]s and [`ClusterCache`]s, keyed by the
/// stable fingerprints above. This is the engine-reuse hook behind
/// `Oracle::engine()`'s per-instance caching, `GridSweep::run_cached`, and
/// the `paradl-serve` daemon's cross-request reuse: repeated queries against
/// the same (model, device, cluster, γ·δ) problem skip the `O(layers²)`
/// engine build and the topology-table derivation entirely, paying only the
/// `O(layers²)`-float [`CostEngine::rebatch`].
///
/// Capacity `0` disables caching (every lookup builds fresh) — used as the
/// serve daemon's no-reuse baseline.
pub struct EngineCache {
    cores: Lru<Arc<EngineCore>>,
    clusters: Lru<Arc<ClusterCache>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for EngineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCache")
            .field("cap", &self.cores.cap)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EngineCache {
    /// A cache holding up to `cap` engine cores and `cap` cluster caches.
    pub fn new(cap: usize) -> Self {
        EngineCache {
            cores: Lru::new(cap),
            clusters: Lru::new(cap),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The core for `key` (an [`engine_fingerprint`]), building and caching
    /// it with `build` on a miss.
    pub fn core(&self, key: u64, build: impl FnOnce() -> Arc<EngineCore>) -> Arc<EngineCore> {
        let (core, hit) = self.cores.get_or_insert(key, build);
        self.count(hit);
        core
    }

    /// Like [`EngineCache::core`], but with a fallible builder: a build
    /// error ([`EngineError`]) propagates to the caller, nothing is cached,
    /// and the miss is still counted. Returns `(core, was_hit)` — the serve
    /// daemon's admission path uses the hit flag for its per-response
    /// `cache_hit` stat.
    pub fn try_core(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<Arc<EngineCore>, EngineError>,
    ) -> Result<(Arc<EngineCore>, bool), EngineError> {
        let result = self.cores.try_get_or_insert(key, build);
        if let Ok((_, hit)) = &result {
            self.count(*hit);
        } else {
            self.count(false);
        }
        result
    }

    /// The cluster cache for `key` (a [`cluster_fingerprint`]), building and
    /// caching it with `build` on a miss.
    pub fn cluster(
        &self,
        key: u64,
        build: impl FnOnce() -> Arc<ClusterCache>,
    ) -> Arc<ClusterCache> {
        let (cache, hit) = self.clusters.get_or_insert(key, build);
        self.count(hit);
        cache
    }

    /// Whether a core for `key` is currently cached (a non-promoting peek —
    /// the serve daemon uses this to report per-response `cache_hit` without
    /// perturbing recency).
    pub fn contains_core(&self, key: u64) -> bool {
        self.cores.contains(key)
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> EngineCacheStats {
        EngineCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::DeviceProfile;
    use crate::cost::estimate;
    use crate::layer::Layer;
    use crate::memory::memory_per_pe;

    fn model() -> Model {
        Model::new(
            "m",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 16, (32, 32), 3, 1, 1),
                Layer::relu("r1", 16, &[32, 32]),
                Layer::pool2d("p1", 16, (32, 32), 2, 2),
                Layer::conv2d("c2", 16, 32, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 32, &[16, 16]),
                Layer::fully_connected("fc", 32, 10),
            ],
        )
    }

    fn strategies() -> Vec<Strategy> {
        vec![
            Strategy::Serial,
            Strategy::Data { p: 8 },
            Strategy::Data { p: 7 }, // non-power-of-two fallback path
            Strategy::Spatial { split: SpatialSplit { pw: 2, ph: 2, pd: 1 } },
            Strategy::Spatial { split: SpatialSplit { pw: 4, ph: 1, pd: 1 } },
            Strategy::Filter { p: 8 },
            Strategy::Channel { p: 8 },
            Strategy::Pipeline { p: 2, segments: 4 },
            Strategy::Pipeline { p: 4, segments: 1 },
            Strategy::DataFilter { p1: 4, p2: 2 },
            Strategy::DataFilter { p1: 3, p2: 2 },
            Strategy::DataSpatial { p1: 4, split: SpatialSplit { pw: 2, ph: 2, pd: 1 } },
        ]
    }

    fn rel_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
    }

    #[test]
    fn engine_matches_reference_cost_model() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let engine = CostEngine::new(&m, &d, &c, cfg).expect("engine builds");
        for s in strategies() {
            let fast = engine.estimate(s);
            let slow = estimate(&m, &d, &c, &cfg, s);
            assert_eq!(fast.iterations, slow.iterations, "{s}");
            for (name, a, b) in [
                ("fw/bw", fast.per_epoch.forward_backward, slow.per_epoch.forward_backward),
                ("wu", fast.per_epoch.weight_update, slow.per_epoch.weight_update),
                ("ge", fast.per_epoch.gradient_exchange, slow.per_epoch.gradient_exchange),
                ("fb-coll", fast.per_epoch.fb_collective, slow.per_epoch.fb_collective),
                ("halo", fast.per_epoch.halo_exchange, slow.per_epoch.halo_exchange),
                ("p2p", fast.per_epoch.pipeline_p2p, slow.per_epoch.pipeline_p2p),
                ("mem", fast.memory_per_pe_bytes, slow.memory_per_pe_bytes),
            ] {
                assert!(rel_close(a, b), "{s}: {name} engine={a} reference={b}");
            }
        }
    }

    #[test]
    fn engine_memory_matches_reference() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let engine = CostEngine::new(&m, &d, &c, cfg).expect("engine builds");
        for s in strategies() {
            let fast = engine.memory_per_pe(s);
            let slow = memory_per_pe(&m, &cfg, s);
            assert!(rel_close(fast, slow), "{s}: engine={fast} reference={slow}");
        }
    }

    #[test]
    fn rebatch_is_byte_identical_to_fresh_build() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let base =
            CostEngine::new(&m, &d, &c, TrainingConfig::small(4096, 64)).expect("engine builds");
        for batch in [8usize, 32, 64, 96, 256] {
            let fresh = CostEngine::new(&m, &d, &c, TrainingConfig::small(4096, batch))
                .expect("engine builds");
            let rebatched = base.rebatched(batch);
            assert_eq!(rebatched.config(), fresh.config());
            for s in strategies() {
                // Exact equality, not tolerance: rebatch re-runs the same
                // arithmetic over the same shared tables.
                assert_eq!(
                    rebatched.memory_per_pe(s),
                    fresh.memory_per_pe(s),
                    "{s} memory at B={batch}"
                );
                assert_eq!(rebatched.estimate(s), fresh.estimate(s), "{s} estimate at B={batch}");
                assert_eq!(
                    rebatched.lower_bound(s),
                    fresh.lower_bound(s),
                    "{s} bound at B={batch}"
                );
            }
        }
    }

    #[test]
    fn rebatched_siblings_share_the_core() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let base =
            CostEngine::new(&m, &d, &c, TrainingConfig::small(4096, 64)).expect("engine builds");
        let sibling = base.rebatched(128);
        assert!(Arc::ptr_eq(&base.core, &sibling.core), "rebatch must not copy the core");
        assert_eq!(sibling.config().batch_size, 128);
        assert_eq!(base.config().batch_size, 64, "rebatched must not mutate the original");
    }

    #[test]
    fn memoized_collective_tables_match_fallback_formulas() {
        // The power-of-two tables are built from the ClusterCache's derived
        // communication models; the non-power-of-two runtime path derives
        // the models on the fly. Both must produce bit-identical times for
        // the sizes the tables cover (the cache holds models, not times,
        // and both paths share df_core/ds_core).
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let engine = CostEngine::with_cache(&m, &d, &c, cfg, &c.cache()).expect("engine builds");
        let w = m.total_weights() as f64 * cfg.bytes_per_item;
        let tables = &engine.core.tables;
        for i in 0..10usize {
            assert_eq!(tables.flat[i], c.comm_model(1 << i).allreduce(1 << i, w), "flat[{i}]");
            for j in 0..10usize {
                assert_eq!(
                    tables.df[i][j],
                    CollectiveTables::df_entry(&c, w, 1 << i, 1 << j),
                    "df[{i}][{j}]"
                );
                assert_eq!(
                    tables.ds[i][j],
                    CollectiveTables::ds_entry(&c, w, 1 << i, 1 << j),
                    "ds[{i}][{j}]"
                );
            }
        }
    }

    #[test]
    fn lower_bound_is_admissible_and_equals_compute() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let engine = CostEngine::new(&m, &d, &c, cfg).expect("engine builds");
        for s in strategies() {
            let est = engine.estimate(s);
            let lb = engine.lower_bound(s);
            assert!(lb <= est.epoch_time(), "{s}: bound {lb} > total {}", est.epoch_time());
            assert_eq!(lb, est.per_epoch.compute(), "{s}: bound must equal the compute part");
        }
    }

    #[test]
    fn limits_match_direct_validation() {
        let m = model();
        let limits = ModelLimits::of(&m);
        assert_eq!(limits.num_layers, m.num_layers());
        assert_eq!(limits.min_filters, m.min_filters());
        assert_eq!(limits.min_spatial_size, m.min_spatial_size());
        let batch = 64;
        let candidates = [
            Strategy::Serial,
            Strategy::Data { p: 64 },
            Strategy::Data { p: 65 },
            Strategy::Filter { p: 10 },
            Strategy::Filter { p: 11 },
            Strategy::Channel { p: 16 },
            Strategy::Channel { p: 17 },
            Strategy::Pipeline { p: 6, segments: 4 },
            Strategy::Pipeline { p: 7, segments: 4 },
            Strategy::Pipeline { p: 2, segments: 65 },
            Strategy::Spatial { split: SpatialSplit { pw: 16, ph: 16, pd: 1 } },
            Strategy::Spatial { split: SpatialSplit { pw: 32, ph: 16, pd: 1 } },
            Strategy::DataFilter { p1: 64, p2: 10 },
            Strategy::DataFilter { p1: 65, p2: 10 },
            Strategy::DataSpatial { p1: 8, split: SpatialSplit { pw: 2, ph: 2, pd: 1 } },
        ];
        for s in candidates {
            assert_eq!(
                limits.is_valid(s, batch),
                s.validate(&m, batch).is_ok(),
                "limits/validate disagree on {s}"
            );
        }
        for kind in StrategyKind::ALL {
            assert_eq!(limits.max_pes(batch, kind), Strategy::max_pes(&m, batch, kind));
        }
    }

    #[test]
    fn balanced_groups_replicates_model_grouping() {
        let m = model();
        let flops: Vec<u64> =
            m.layers.iter().map(|l| l.flops_forward() + l.flops_backward()).collect();
        for p in 1..=m.num_layers() + 2 {
            assert_eq!(
                balanced_groups(&flops, p),
                m.balanced_pipeline_groups(p.min(m.num_layers()).max(1)),
                "grouping diverges at p={p}"
            );
        }
    }

    #[test]
    fn from_core_is_byte_identical_to_fresh_build() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let base =
            CostEngine::new(&m, &d, &c, TrainingConfig::small(4096, 64)).expect("engine builds");
        let core = base.core_handle();
        // Different batch AND different dataset size: neither is baked into
        // the core, so hydration must still match a fresh build exactly.
        let cfg = TrainingConfig::small(8192, 96);
        let hydrated = CostEngine::from_core(&m, &c, cfg, core).expect("hydration succeeds");
        let fresh = CostEngine::new(&m, &d, &c, cfg).expect("engine builds");
        assert_eq!(hydrated.config(), fresh.config());
        for s in strategies() {
            assert_eq!(hydrated.estimate(s), fresh.estimate(s), "{s}");
            assert_eq!(hydrated.memory_per_pe(s), fresh.memory_per_pe(s), "{s} memory");
            assert_eq!(hydrated.lower_bound(s), fresh.lower_bound(s), "{s} bound");
        }
        assert!(Arc::ptr_eq(&base.core, &hydrated.core), "hydration must share the core");
    }

    #[test]
    fn engine_fingerprint_ignores_batch_but_not_problem() {
        let m = model();
        let c = ClusterSpec::paper_system();
        let cfg_a = TrainingConfig::small(4096, 64);
        let mut cfg_b = cfg_a;
        cfg_b.batch_size = 256;
        cfg_b.dataset_size = 9999;
        cfg_b.epochs = 3;
        // Batch/dataset/epochs are not part of the core's validity key.
        assert_eq!(engine_fingerprint(&m, &c, &cfg_a), engine_fingerprint(&m, &c, &cfg_b));
        // δ and γ are.
        let mut cfg_c = cfg_a;
        cfg_c.memory_reuse = 0.5;
        assert_ne!(engine_fingerprint(&m, &c, &cfg_a), engine_fingerprint(&m, &c, &cfg_c));
        // So are the model and the cluster.
        let c2 = ClusterSpec::workstation(8);
        assert_ne!(engine_fingerprint(&m, &c, &cfg_a), engine_fingerprint(&m, &c2, &cfg_a));
        assert_ne!(cluster_fingerprint(&c), cluster_fingerprint(&c2));
        assert_eq!(cluster_fingerprint(&c), cluster_fingerprint(&ClusterSpec::paper_system()));
    }

    #[test]
    fn engine_cache_hits_reuse_and_evict_lru() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let key = engine_fingerprint(&m, &c, &cfg);
        let cache = EngineCache::new(2);
        let build = || CostEngine::new(&m, &d, &c, cfg).expect("engine builds").core_handle();
        let first = cache.core(key, build);
        assert!(cache.contains_core(key));
        let second = cache.core(key, || panic!("must not rebuild on a hit"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), EngineCacheStats { hits: 1, misses: 1 });
        // Fill past capacity: the least-recently-used key falls out.
        cache.core(key ^ 1, build);
        cache.core(key ^ 2, build);
        assert!(!cache.contains_core(key), "LRU entry should have been evicted");
        assert!(cache.contains_core(key ^ 2));
        // Capacity 0 disables caching entirely.
        let off = EngineCache::new(0);
        off.core(key, build);
        assert!(!off.contains_core(key));
        assert_eq!(off.stats(), EngineCacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn three_d_halo_masks_cover_depth_splits() {
        let m = Model::new(
            "3d",
            4,
            vec![16, 16, 16],
            vec![
                Layer::conv3d("c1", 4, 8, (16, 16, 16), 3, 1, 1),
                Layer::global_pool("g", 8, &[16, 16, 16]),
                Layer::fully_connected("fc", 8, 4),
            ],
        );
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(1024, 32);
        let engine = CostEngine::new(&m, &d, &c, cfg).expect("engine builds");
        for split in [
            SpatialSplit { pw: 2, ph: 1, pd: 1 },
            SpatialSplit { pw: 1, ph: 2, pd: 1 },
            SpatialSplit { pw: 1, ph: 1, pd: 2 },
            SpatialSplit { pw: 2, ph: 2, pd: 2 },
        ] {
            let s = Strategy::Spatial { split };
            let fast = engine.estimate(s).per_epoch.halo_exchange;
            let slow = estimate(&m, &d, &c, &cfg, s).per_epoch.halo_exchange;
            assert!(rel_close(fast, slow), "{s}: halo engine={fast} reference={slow}");
            assert!(fast > 0.0, "{s}: expected a non-zero halo");
        }
    }

    #[test]
    fn degenerate_specs_fail_construction_with_a_diagnostic() {
        let m = model();
        let c = ClusterSpec::paper_system();
        // A zero batch is a typed Config error, not a divide-by-zero panic.
        let err = CostEngine::new(&m, &DeviceProfile::v100(), &c, TrainingConfig::small(4096, 0))
            .expect_err("zero batch must not build");
        assert!(matches!(err, EngineError::Config(_)), "{err}");
        assert!(err.to_string().contains("invalid config"), "{err}");
        // A zero-rate device turns layer times into Inf: NonFinite names the
        // poisoned table instead of letting Inf reach a ranking.
        let mut dead = DeviceProfile::v100();
        dead.peak_flops = 0.0;
        let err = CostEngine::new(&m, &dead, &c, TrainingConfig::small(4096, 64))
            .expect_err("zero-rate device must not build");
        match &err {
            EngineError::NonFinite { table, .. } => assert_eq!(*table, "layer_times"),
            other => panic!("expected NonFinite, got {other}"),
        }
        // Hydration re-checks the config too.
        let good = CostEngine::new(&m, &DeviceProfile::v100(), &c, TrainingConfig::small(4096, 64))
            .expect("engine builds");
        let err = CostEngine::from_core(&m, &c, TrainingConfig::small(4096, 0), good.core_handle())
            .expect_err("zero batch must not hydrate");
        assert!(matches!(err, EngineError::Config(_)), "{err}");
    }

    #[test]
    fn try_core_propagates_errors_without_caching() {
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let key = engine_fingerprint(&m, &c, &cfg);
        let cache = EngineCache::new(4);
        let err = cache
            .try_core(key, || Err(EngineError::Config("nope".into())))
            .expect_err("builder error propagates");
        assert_eq!(err, EngineError::Config("nope".into()));
        assert!(!cache.contains_core(key), "a failed build must not be cached");
        let (core, hit) = cache
            .try_core(key, || Ok(CostEngine::new(&m, &d, &c, cfg).unwrap().core_handle()))
            .expect("build succeeds");
        assert!(!hit);
        assert!(cache.contains_core(key));
        let (again, hit) = cache.try_core(key, || panic!("must not rebuild on a hit")).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&core, &again));
    }
}
