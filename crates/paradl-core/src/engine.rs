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
//! problem, every model-dependent table the cost formulas need. All of them
//! are batch-invariant and live in one [`std::sync::Arc`]-shared core, so
//! [`CostEngine::rebatch`] (used when the global batch changes, e.g. across
//! the cells of a [`crate::grid::QueryGrid`]) only stores the new batch:
//!
//! * per-layer `FW`/`BW`/`WU` times ([`LayerTimes`]) and their totals — the
//!   device model is only a function of layer shapes,
//! * activation/weight/bias element totals for the memory model (the batch
//!   factor is applied at query time),
//! * per-pipeline-depth tables for every `p ≤ G`: bottleneck stage times,
//!   boundary activation sizes, and the per-stage memory split into
//!   `(activation, static)` element pairs — the balanced grouping depends
//!   only on per-layer FLOPs, never on the batch. Of the `G(G+1)/2` stage
//!   pairs only each depth's Pareto-maximal ones are kept: a pair no larger
//!   in both parts than another of its depth never decides that depth's
//!   memory (1,199 of ResNet-50's 15,225 pairs and 3,818 of ResNet-152's
//!   132,355, at most 9 per depth). A build keeps only the `O(G)` inputs of
//!   these tables (per-layer FLOPs, prefix sums, output sizes) and fills
//!   each depth the first time it is read, so a cold engine pays only for
//!   the depths its queries price (at most `⌊log₂ G⌋ + 1` under a
//!   powers-of-two sweep, where building every depth is `O(G²)`),
//! * halo-exchange aggregates per split-dimension mask (which of the ≤ 3
//!   spatial dimensions are split — the only thing the halo volume depends
//!   on),
//! * memoized collective-time building blocks keyed by communicator size for
//!   the gradient-exchange Allreduce of the data, spatial, data+filter and
//!   data+spatial strategies — priced straight from the [`ClusterSpec`]
//!   by the same per-collective formulas the non-power-of-two sizes use,
//! * the model's scaling-limit table ([`ModelLimits`]) used by candidate
//!   enumeration and validation,
//! * the per-candidate communication coefficients (`CommCoef`, from
//!   `CostEngine::comm_prep`): every batch-dependent communication term
//!   of the cost model is written in batch-last form
//!   `fixed + batch · per_sample`, so four stored scalars per candidate
//!   price its four communication phases at any batch with a couple of
//!   multiply-adds (`CostEngine::comm_phases`, the engine's one
//!   communication formula). [`CostEngine::estimate`] prices a candidate
//!   from a fresh row; the grid kernel tabulates one coefficient column
//!   per (model, cluster) pair, reuses it across every batch cell, and
//!   ranks by the same formula — so no collective-model derivation, and
//!   no division, runs in its hot loop.
//!
//! The engine itself holds only the batch-dependent state: the stored
//! [`TrainingConfig`]'s `batch_size` and the iteration count derived from
//! it. Every batch enters the formulas at query time — a pipeline's stage
//! memory is `max_i (2·B·act_i + static_i)` over its depth's front — so a
//! rebatched engine is **byte-for-byte identical** to an engine freshly
//! built at the new batch, and a depth is a pure function of (model, `p`),
//! so no bit depends on which engine, thread or query filled it first.
//! That is what lets [`crate::grid::GridSweep`] answer a whole batch sweep
//! from one engine while returning exactly what per-query searches would.
//!
//! After construction, [`CostEngine::estimate`], [`CostEngine::memory_per_pe`]
//! and [`CostEngine::lower_bound`] all run in `O(1)` per candidate (no
//! allocation once a depth is filled), which is what makes the pruned
//! search in [`crate::search`] much faster than the reference path at
//! scale. Measured on a 2-vCPU Intel Xeon host (`nproc` = 2), on the
//! CosmoFlow-scale exhaustive space of `paradl-bench/benches/engine.rs`
//! (16 Ki PEs, criterion medians): the reference path finishes the search
//! in ≈ 0.94 s, the engine-backed full ranking in ≈ 0.24 s, and the engine
//! with top-10 pruning in ≈ 0.03 s — a 4–33× end-to-end speedup. On the
//! same host a build (`engine/resnet{50,152}_build_engine`) takes
//! ≈ 60–90 µs for ResNet-50 and ≈ 0.17–0.21 ms for ResNet-152, against
//! ≈ 420–470 µs and ≈ 2.9–3.1 ms when every depth was built up front; a
//! build followed by a read of every ResNet-152 depth
//! (`engine/resnet152_build_all_depths`, what an exhaustive sweep pays)
//! takes ≈ 2.9–3.0 ms.
//!
//! A built core can outlive its engine: [`EngineCache`] keeps cores across
//! queries, filed under the [`ProblemKey`] of their (model, cluster, δ, γ)
//! problem — per-part keys hashed from the fields' bits ([`crate::key`]),
//! computed once by the caller, whose model is resolved once into a
//! [`KeyedModel`] (the serve daemon's zoo). A hit confirms the stored
//! problem, not only the key, so a key collision costs a build, never a
//! wrong core. A warm ResNet-50 hit takes ≈ 0.1 µs
//! (`engine/resnet50_cache_hit`), where keying the problem from its
//! `Debug` text once took ≈ 130 µs.
//!
//! The engine is numerically *equivalent* to the reference model (same
//! formulas, refactored around precomputed aggregates) but not bit-identical
//! to it: sums are reassociated, so individual phase times can differ by a
//! few ULPs. Property tests in `tests/proptest_engine.rs` pin the relative
//! error below `1e-9` for every strategy kind. Within one engine the results
//! are fully deterministic, which is why the parallel and serial searches
//! agree exactly.

use crate::cluster::{ClusterSpec, MAX_LOG2_PES};
use crate::comm::CommModel;
use crate::compute::{ComputeModel, LayerTimes};
use crate::config::TrainingConfig;
use crate::cost::{hierarchical_allreduce_time, CostEstimate, PhaseBreakdown};
use crate::key::{ClusterKey, KeyedModel, MemoryKey, ProblemKey};
use crate::model::{balanced_groups, Model};
use crate::resident::{ColumnStore, ColumnStoreStats, StoreCounters};
use crate::strategy::{SpatialSplit, Strategy, StrategyKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
/// (model, cluster) pair, produced by [`CostEngine::comm_prep`] and priced
/// by [`CostEngine::comm_phases`] — for a fresh [`CostEngine::estimate`]
/// and for every row of the grid kernel's coefficient column alike. The
/// field meaning is per strategy family (see `comm_prep`); unused fields
/// are zero. Every batch-dependent communication term of the cost model is
/// in batch-last form `fixed + batch · per_sample`, so four coefficients
/// (one 32-byte row) give any family's exact phase times with no
/// per-candidate division (the pipeline family keeps one, by the batch).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CommCoef {
    /// Gradient-exchange collective time (the `*_allreduce` value), or the
    /// pipeline dataset prefactor `2·D·(p + s − 2)`.
    pub(crate) a: f64,
    /// Fixed latency part: halo `pairs·2·p2p(0)`, collective
    /// `collective_layers·α`, or the pipeline effective-link α.
    pub(crate) b: f64,
    /// The per-sample slope the batch multiplies (`halo_per_sample`,
    /// `collective_per_sample`, or the pipeline boundary bytes·β_eff).
    pub(crate) c: f64,
    /// Strategy-derived scale: the collective families' `3·(p − 1)`, or
    /// the pipeline depth `p` (`> 1` flags a communicating pipeline).
    pub(crate) d: f64,
}

/// The per-split-mask index into the halo aggregate tables: one bit per
/// spatial dimension that is actually split (the halo volume depends on
/// nothing else; used by [`CostEngine::comm_prep`]).
#[inline]
fn halo_mask(split: SpatialSplit) -> usize {
    (usize::from(split.pw > 1))
        | (usize::from(split.ph > 1) << 1)
        | (usize::from(split.pd > 1) << 2)
}

/// Batch-invariant aggregates of one pipeline depth `p`: the compute and
/// boundary quantities of the balanced layer groups. The per-stage memory is
/// *not* here — it depends on the batch and is folded from the depth's
/// front at query time ([`Depth::front`]).
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

/// The batch-invariant tables of one pipeline depth, filled the first time
/// the depth is read ([`EngineCore::depth`]).
#[derive(Debug)]
struct Depth {
    /// Compute and boundary aggregates of the balanced stages.
    agg: PipelineAgg,
    /// The stages' Pareto-maximal `(Σ(|x|+|y|), Σ(2|w|+|bi|))` element
    /// pairs, ascending in the activation part. The batch-dependent stage
    /// memory is `2·B·act + static`, and a pair no larger in both parts than
    /// another of its depth never wins that maximum at any batch `B ≥ 1`.
    front: Vec<(f64, f64)>,
}

/// Whether stage memory parts `a` are at least as large as `b` in both the
/// activation and the static field. Then `2·B·a.0 + a.1 ≥ 2·B·b.0 + b.1` at
/// every batch `B ≥ 1` (all terms are `≥ 0` and rounding is monotone), so
/// `b` never decides a depth's maximum and the engine drops it. A NaN
/// part is ordered against nothing and an infinite one is covered by no
/// finite pair, so a non-finite pair always stays in the table for
/// [`EngineCore::verify_finite`] to reject.
fn covers(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 >= b.0 && a.1 >= b.1
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
/// is why a [`ProblemKey`] leaves them out.
///
/// A build keeps only the `O(layers)` inputs of the pipeline tables (the
/// per-layer FLOPs, five prefix sums and the output sizes) and fills each
/// depth — its aggregates and its Pareto front of stage memory pairs — the
/// first time a query reads it, through a per-depth [`OnceLock`]. A depth
/// is a pure function of (model, `p`), so neither the order nor the thread
/// that fills it changes any bit. Its size stays linear in the layer count:
/// a 72-byte slot per depth, and with every depth filled a ResNet-152 core
/// holds 3,818 front pairs (61 KB), where the full triangle of per-stage
/// pairs would be 132,355 (2.1 MB).
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
    /// Per-layer forward + backward FLOPs as `f64`, the balanced grouping's
    /// input.
    flops: Vec<f64>,
    /// The exact integer sum of `flops`.
    total_flops: u64,
    /// Prefix sums (`G + 1` entries, starting at 0) of the per-layer `FW`,
    /// `BW` and `WU` times, so a stage's sum is one difference.
    fw_prefix: Vec<f64>,
    bw_prefix: Vec<f64>,
    wu_prefix: Vec<f64>,
    /// Prefix sums of the per-layer memory parts `|x|+|y|` and `2|w|+|bi|`.
    act_prefix: Vec<f64>,
    static_prefix: Vec<f64>,
    /// `|y_l|` per layer: the stage-boundary activation sizes.
    out_sizes: Vec<f64>,
    /// `depths[p-1]`: the balanced `p`-stage pipeline's tables, filled on
    /// first read by [`EngineCore::depth`].
    depths: Vec<OnceLock<Depth>>,
    /// Memoized gradient-exchange collectives.
    tables: CollectiveTables,
    /// `γ · δ`: the factor applied to raw memory element counts.
    gamma_delta: f64,
}

impl EngineCore {
    /// The tables of the balanced `p`-stage pipeline (`1 ≤ p ≤ G`), filled
    /// by [`EngineCore::fill_depth`] the first time any engine sharing this
    /// core reads them.
    #[inline]
    fn depth(&self, p: usize) -> &Depth {
        self.depths[p - 1].get_or_init(|| self.fill_depth(p))
    }

    /// Groups the layers into `p` balanced stages with the model's one
    /// grouping ([`balanced_groups`]) and turns every per-stage sum
    /// into a prefix-sum difference — no layer re-walk. The stage memory is
    /// kept as batch-invariant `(activation, static)` element pairs, of
    /// which only the Pareto-maximal ones survive. Out of line, so the
    /// callers' inlined fast path stays one load and a branch.
    #[cold]
    #[inline(never)]
    fn fill_depth(&self, p: usize) -> Depth {
        let range_sum = |pfx: &[f64], r: &std::ops::Range<usize>| pfx[r.end] - pfx[r.start];
        let groups = balanced_groups(&self.flops, self.total_flops, p);
        let mut agg = PipelineAgg { has_boundary: groups.len() > 1, ..Default::default() };
        let mut front: Vec<(f64, f64)> = Vec::new();
        // Index of the front pair that covered the last stage: adjacent
        // stages have similar parts, so it is tried first.
        let mut hint = 0;
        for (gi, range) in groups.iter().enumerate() {
            agg.max_fw = agg.max_fw.max(range_sum(&self.fw_prefix, range));
            agg.max_bw = agg.max_bw.max(range_sum(&self.bw_prefix, range));
            agg.max_wu = agg.max_wu.max(range_sum(&self.wu_prefix, range));
            if gi + 1 < groups.len() {
                agg.max_boundary_act = agg.max_boundary_act.max(self.out_sizes[range.end - 1]);
            }
            let part = (range_sum(&self.act_prefix, range), range_sum(&self.static_prefix, range));
            if front.get(hint).is_some_and(|&kept| covers(kept, part)) {
                continue;
            }
            match front.iter().position(|&kept| covers(kept, part)) {
                Some(j) => hint = j,
                None => {
                    front.retain(|&kept| !covers(part, kept));
                    hint = front.len();
                    front.push(part);
                }
            }
        }
        front.sort_by(|x, y| x.0.total_cmp(&y.0));
        Depth { agg, front }
    }

    /// Whether every depth value is sure to be finite without filling it.
    /// Each is a maximum, seeded at `0.0`, of output sizes or of
    /// differences of two entries of one prefix array; when the entries are
    /// finite and `2·max|entry|` is too, no rounded difference can exceed
    /// that bound.
    fn depths_are_finite(&self) -> bool {
        let bounded = |pfx: &[f64]| {
            let mut max = 0.0f64;
            for &v in pfx {
                if !v.is_finite() {
                    return false;
                }
                max = max.max(v.abs());
            }
            (2.0 * max).is_finite()
        };
        [&self.fw_prefix, &self.bw_prefix, &self.wu_prefix, &self.act_prefix, &self.static_prefix]
            .into_iter()
            .all(|pfx| bounded(pfx))
            && self.out_sizes.iter().all(|v| v.is_finite())
    }

    /// Sweeps every tabulated f64 for finiteness, so a degenerate spec
    /// (zero device rates, NaN link parameters, …) fails construction with
    /// a named table instead of poisoning every downstream ranking. The
    /// pipeline depths are checked without being filled when
    /// [`EngineCore::depths_are_finite`] proves them finite; otherwise
    /// (only near `f64::MAX`) every depth is filled and swept here.
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
        if !self.depths_are_finite() {
            let depths = || (1..=self.depths.len()).map(|p| self.depth(p));
            check(
                "pipeline",
                depths().flat_map(|d| {
                    let a = d.agg;
                    [a.max_fw, a.max_bw, a.max_wu, a.max_boundary_act]
                }),
            )?;
            check(
                "pipe_front",
                depths().flat_map(|d| d.front.iter().flat_map(|&(act, stat)| [act, stat])),
            )?;
        }
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
    /// Batch-dependent: cached `config.iterations_per_epoch()` (the
    /// estimate hot path reads it several times per candidate).
    iters: usize,
    /// `iters` as `f64`.
    iters_f: f64,
}

impl<'a> CostEngine<'a> {
    /// Builds the engine: one `O(layers)` precomputation pass, with the
    /// collective tables priced straight from `cluster`. Each pipeline
    /// depth (`O(layers)` more) is filled the first time it is read.
    ///
    /// Errors instead of building when the config is invalid (zero batch,
    /// zero dataset, …) or when any precomputed table entry comes out
    /// non-finite — see [`EngineError`]. A depth that could come out
    /// non-finite is refused here too: when the cheap bound of
    /// `EngineCore::depths_are_finite` fails, every depth is filled and
    /// checked at build.
    pub fn new<C: ComputeModel + ?Sized>(
        model: &'a Model,
        device: &C,
        cluster: &'a ClusterSpec,
        config: TrainingConfig,
    ) -> Result<Self, EngineError> {
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
            for (i, l) in model.layers.iter().enumerate() {
                let hx = l.halo_size(&splits[..l.spatial_dims().min(3)]) as f64;
                if hx == 0.0 {
                    continue;
                }
                // `(n as f64).max(1.0)` is `n.max(1) as f64` for every `usize`.
                let hdy = hx * (out_sizes[i] / in_sizes[i].max(1.0));
                halo_pairs[mask] += 1.0;
                halo_elems[mask] += hx + hdy;
            }
        }

        // The inputs of every pipeline depth: the balanced grouping runs on
        // the model's flat FLOP array, as `Model::balanced_pipeline_groups`
        // does, and every per-stage sum becomes a prefix-sum difference. The
        // depths themselves are filled on first read (`EngineCore::depth`).
        let (flops, total_flops) = model.pipeline_flops();
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

        let tables = CollectiveTables::build(cluster, total_weight_bytes);

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
            flops,
            total_flops,
            fw_prefix,
            bw_prefix,
            wu_prefix,
            act_prefix,
            static_prefix,
            out_sizes,
            depths: (0..g).map(|_| OnceLock::new()).collect(),
            tables,
            gamma_delta: config.memory_reuse * delta,
        };
        core.verify_finite()?;
        Self::from_core(model, cluster, config, Arc::new(core))
    }

    /// Switches the engine to a new global mini-batch `batch`: it stores the
    /// new `batch_size` and the iteration count derived from it, `O(1)` with
    /// no allocation and no device, layer or topology queries. Nothing else
    /// depends on the batch: the pipeline stage memory is folded from the
    /// depth's Pareto front at the current batch when it is read.
    ///
    /// The result is byte-for-byte identical to building a fresh engine
    /// whose config differs only in `batch_size` (property-tested in
    /// `tests/proptest_engine.rs`). Every stage term `2·batch·act + static`
    /// has `act ≥ 0`, so pipeline memory, like every other family's, never
    /// shrinks as the batch grows; the grid's prep pass relies on that.
    pub fn rebatch(&mut self, batch: usize) {
        self.config.batch_size = batch;
        self.iters = self.config.iterations_per_epoch();
        self.iters_f = self.iters as f64;
    }

    /// A sibling engine at a different global mini-batch, sharing every
    /// batch-invariant table with `self` through the [`Arc`]-held core
    /// (the clone copies one pointer and the config, then
    /// [`CostEngine::rebatch`]es it).
    pub fn rebatched(&self, batch: usize) -> Self {
        let mut sibling = self.clone();
        sibling.rebatch(batch);
        sibling
    }

    /// A shared handle to this engine's batch-invariant core, suitable for
    /// stashing in an [`EngineCache`] and later hydrating a fresh engine
    /// with [`CostEngine::from_core`] — skipping the precomputation pass and
    /// every pipeline depth the core has filled so far.
    pub fn core_handle(&self) -> Arc<EngineCore> {
        Arc::clone(&self.core)
    }

    /// Hydrates an engine from a previously built core in `O(1)`, skipping
    /// the precomputation pass entirely (no device queries — the device
    /// model is already baked into the core's tables). The engine reads
    /// the pipeline depths the core has filled so far and fills the others
    /// on first read, like every engine sharing the core. [`CostEngine::new`]
    /// hydrates its own core through this function, and the batch is set
    /// through [`CostEngine::rebatch`], so the result is **byte-for-byte
    /// identical** to a fresh build at `config`.
    ///
    /// Contract: `core` must have been built for this `model`, this
    /// `cluster`, the same device, and a config with the same
    /// `bytes_per_item` and `memory_reuse` — i.e. the same problem behind
    /// its [`ProblemKey`]. `batch_size`, `dataset_size` and `epochs` may
    /// differ freely (they are not baked into any core table).
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
        let mut engine = CostEngine { model, cluster, config, core, iters: 0, iters_f: 0.0 };
        engine.rebatch(config.batch_size);
        Ok(engine)
    }

    /// The model this engine was built for.
    pub fn model(&self) -> &'a Model {
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

    /// The stage memory parts the engine keeps for the balanced `p`-stage
    /// pipeline (`p` clamped to `1..=G`): the Pareto-maximal
    /// `(Σ(|x|+|y|), Σ(2|w|+|bi|))` element pairs of its stages, ascending
    /// in the activation part. The pipeline's raw per-PE memory at batch
    /// `B` is the largest `2·B·act + static` over them. Fills the depth if
    /// no engine sharing this core has read it yet.
    pub fn pipeline_memory_front(&self, p: usize) -> &[(f64, f64)] {
        if self.core.depths.is_empty() {
            return &[];
        }
        &self.depth(p).front
    }

    /// Maximum memory (bytes) required on one PE, `O(1)` equivalent of
    /// [`crate::memory::memory_per_pe`].
    #[inline]
    pub fn memory_per_pe(&self, strategy: Strategy) -> f64 {
        let b = self.config.batch_size as f64;
        let raw = match strategy {
            Strategy::Serial => self.mem_raw(1.0, 1.0, b),
            Strategy::Data { p } => self.mem_raw(1.0, 1.0, b / p as f64),
            Strategy::Spatial { split } => self.mem_raw(split.total() as f64, 1.0, b),
            Strategy::Filter { p } | Strategy::Channel { p } => self.mem_raw(1.0, p as f64, b),
            Strategy::Pipeline { p, .. } => self
                .depth(p)
                .front
                .iter()
                .fold(0.0f64, |mem, &(act, stat)| mem.max(2.0 * b * act + stat)),
            Strategy::DataFilter { p1, p2 } => self.mem_raw(p1 as f64, p2 as f64, b),
            Strategy::DataSpatial { p1, split } => {
                self.mem_raw((p1 * split.total()) as f64, 1.0, b)
            }
        };
        self.core.gamma_delta * raw
    }

    /// Full cost estimate, `O(1)` equivalent of [`crate::cost::estimate`]:
    /// the compute phases, the communication phases of the candidate's
    /// fresh coefficient row (`comm_phases` over `comm_prep`, the same
    /// pricing the kernel ranks by), and the per-PE memory.
    pub fn estimate(&self, strategy: Strategy) -> CostEstimate {
        let (forward_backward, weight_update) = self.compute_terms(strategy);
        let comm = self.comm_phases(strategy.kind() as u8, &self.comm_prep(strategy));
        CostEstimate {
            strategy,
            per_epoch: PhaseBreakdown { forward_backward, weight_update, ..comm },
            iterations: self.iters,
            memory_per_pe_bytes: self.memory_per_pe(strategy),
        }
    }

    /// Admissible lower bound on the per-epoch time of `strategy`: its
    /// compute-only time (forward/backward + weight update), computed with
    /// the exact expressions [`CostEngine::estimate`] uses, so
    /// `lower_bound(s) ≤ estimate(s).epoch_time()` always holds (every
    /// communication term of the cost model is non-negative). The kernel's
    /// seed panel ([`crate::kernel`]) picks its seeds by this bound.
    #[inline]
    pub fn lower_bound(&self, strategy: Strategy) -> f64 {
        let (fb, wu) = self.compute_terms(strategy);
        fb + wu
    }

    /// Tabulates the batch-invariant communication coefficients of
    /// `strategy` for [`CostEngine::comm_phases`]. Every value is a
    /// function of the model core, the cluster and the strategy only —
    /// never of the batch — so one coefficient pass per (model, cluster)
    /// pair serves every batch of a grid sweep (the whole point: the
    /// collective/link derivations are the dominant per-candidate cost,
    /// and they are re-paid per batch without this).
    ///
    /// Per family: `a` is the gradient-exchange collective time
    /// (`weight_allreduce` / `df_allreduce` / `ds_allreduce`); `b` the
    /// fixed latency part of the batch-dependent term; `c` the per-sample
    /// slope the batch multiplies; `d` the collective families'
    /// `3·(p − 1)` scale or the pipeline depth. `Serial` doesn't
    /// communicate (all-zero coefficients).
    pub(crate) fn comm_prep(&self, strategy: Strategy) -> CommCoef {
        let core = &*self.core;
        let zero = CommCoef::default();
        match strategy {
            Strategy::Serial => zero,
            Strategy::Pipeline { p, segments } => {
                // Zero coefficients encode the `p ≤ 1` (no communication)
                // case; `d = p ≥ 2` flags the real formula. A boundary-less
                // pipeline zeroes α and the per-sample slope (the boundary
                // bytes·β per sample), so its per-stage p2p is `0.0`.
                if p <= 1 {
                    return zero;
                }
                let agg = self.pipeline_agg(p);
                let d = self.config.dataset_size as f64;
                let s = segments.max(1) as f64;
                let comm = self.cluster.comm_model(p.min(self.cluster.gpus_per_node.max(2)));
                let (alpha, per_sample) = if agg.has_boundary {
                    let eff = comm.link.with_contention(comm.contention);
                    (eff.alpha, agg.max_boundary_act / s * self.config.bytes_per_item * eff.beta)
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

    /// The four communication phases of one candidate from its
    /// [`CommCoef`] row (paper Eqs. 10, 15, 19, 23): the engine's only
    /// communication formula. [`CostEngine::estimate`] fills its breakdown
    /// from it, and the kernel ranks by `lower_bound + communication()` of
    /// the same value, so the two agree bit for bit by construction. The
    /// compute phases are left zero.
    ///
    /// Dispatch is on the prep-row family byte ([`StrategyKind`] as `u8`),
    /// not the strategy itself, so the kernel's hot loop never loads or
    /// decodes the strategy column — every strategy-derived parameter is
    /// folded into `k` by [`CostEngine::comm_prep`]. Only the batch and the
    /// iteration count enter here, so one coefficient row serves every
    /// batch.
    #[inline]
    pub(crate) fn comm_phases(&self, fam: u8, k: &CommCoef) -> PhaseBreakdown {
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
        let mut phases = PhaseBreakdown::default();
        match fam {
            SERIAL => {}
            DATA => phases.gradient_exchange = iters * k.a,
            // Spatial and data+spatial share one shape: the shard divisor
            // of the per-sample halo volume is folded into `c` at prep time,
            // so both reduce to the same fused fixed-plus-slope form.
            SPATIAL | DATA_SPATIAL => {
                phases.gradient_exchange = iters * k.a;
                phases.halo_exchange = iters * (2.0 * (k.b + b * k.c));
            }
            FILTER | CHANNEL => phases.fb_collective = iters * (k.d * (k.b + b * k.c)),
            PIPELINE => {
                // `d = p` flags a communicating pipeline (`comm_prep` stores
                // zero coefficients for `p ≤ 1`); `a` is the dataset
                // prefactor `2·D·(p + s − 2)`, `b`/`c` the effective link's
                // α and per-sample slope (zeroed for boundary-less
                // pipelines, so the per-stage p2p is `0.0`). The one
                // division is by the cell batch.
                if k.d > 1.0 {
                    phases.pipeline_p2p = k.a / b * (k.b + b * k.c);
                }
            }
            DATA_FILTER => {
                phases.gradient_exchange = iters * k.a;
                phases.fb_collective = iters * (k.d * (k.b + b * k.c));
            }
            _ => unreachable!("family byte out of range"),
        }
        phases
    }

    /// Forward/backward and weight-update epoch times of `strategy` — the
    /// compute part shared by [`CostEngine::estimate`] and
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

    /// The tables of pipeline depth `p`, clamped to `1..=G`.
    #[inline]
    fn depth(&self, p: usize) -> &Depth {
        self.core.depth(p.clamp(1, self.core.depths.len().max(1)))
    }

    fn pipeline_agg(&self, p: usize) -> PipelineAgg {
        self.depth(p).agg
    }

    /// Flat ring/tree Allreduce of the full weight buffer
    /// (`total_weight_bytes`) over `p` PEs, memoized for power-of-two `p`.
    fn weight_allreduce(&self, p: usize) -> f64 {
        if p.is_power_of_two() {
            if let Some(&t) = self.core.tables.flat.get(p.trailing_zeros() as usize) {
                return t;
            }
        }
        CollectiveTables::flat_entry(self.cluster, self.core.total_weight_bytes, p)
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
    /// replica count `p1` for `DataSpatial`) — the `c` coefficient of both
    /// halo-exchanging families in [`CostEngine::comm_prep`].
    #[inline]
    fn halo_per_sample(&self, comm: &CommModel, mask: usize, shard: f64) -> f64 {
        self.core.halo_elems[mask] / shard * self.config.bytes_per_item * comm.link.beta
    }

    /// Batch-invariant per-sample collective bytes·φ·β of filter/channel
    /// parallelism: `act_out_except_last/p_total · δ · φ · β` — the `c`
    /// coefficient of the layer-wise collective families in
    /// [`CostEngine::comm_prep`].
    #[inline]
    fn collective_per_sample(&self, comm: &CommModel, p_total: usize) -> f64 {
        self.core.act_out_except_last / p_total as f64
            * self.config.bytes_per_item
            * comm.contention
            * comm.link.beta
    }
}

impl CollectiveTables {
    /// Tabulates every power-of-two collective time with the very formulas
    /// the non-power-of-two sizes are priced with at query time, so a
    /// memoized entry is bit-identical to the on-the-fly price.
    fn build(cluster: &ClusterSpec, weight_bytes: f64) -> Self {
        let n = MAX_LOG2_PES + 1;
        let row = |entry: fn(&ClusterSpec, f64, usize, usize) -> f64, i: usize| -> Vec<f64> {
            (0..n - i).map(|j| entry(cluster, weight_bytes, 1 << i, 1 << j)).collect()
        };
        CollectiveTables {
            flat: (0..n).map(|i| Self::flat_entry(cluster, weight_bytes, 1 << i)).collect(),
            df: (0..n).map(|i| row(Self::df_entry, i)).collect(),
            ds: (0..n).map(|i| row(Self::ds_entry, i)).collect(),
        }
    }

    /// Data / spatial gradient exchange: flat Allreduce of the full weight
    /// buffer over `p` consecutive PEs.
    fn flat_entry(cluster: &ClusterSpec, weight_bytes: f64, p: usize) -> f64 {
        cluster.comm_model(p).allreduce(p, weight_bytes)
    }

    /// Data+filter gradient exchange: the `|w|/p2` shard Allreduced over
    /// `p1` groups on the inter-group link, slowed by the segmented
    /// Allreduce's contention φ.
    fn df_entry(cluster: &ClusterSpec, weight_bytes: f64, p1: usize, p2: usize) -> f64 {
        cluster
            .comm_model_inter_group(p1, p2)
            .with_contention(cluster.segmented_allreduce_contention(p2))
            .allreduce(p1, weight_bytes / p2 as f64)
    }

    /// Data+spatial gradient exchange: hierarchical leader-based Allreduce
    /// over `p1` groups of `p2` node-local PEs.
    fn ds_entry(cluster: &ClusterSpec, weight_bytes: f64, p1: usize, p2: usize) -> f64 {
        hierarchical_allreduce_time(
            &cluster.comm_model(p2.min(cluster.gpus_per_node)),
            &cluster.comm_model_inter_group(p1, p2),
            p2,
            p1,
            weight_bytes,
        )
    }
}

/// One cached core and the problem it was built for: the key it is
/// filed under, and the values a hit confirms — the model, and the words
/// the key hashes for the cluster ([`ClusterKey::words`]) and for `δ`/`γ`
/// ([`MemoryKey::words`]) — with the problem's resident sweep columns.
struct CachedCore {
    key: ProblemKey,
    model: Arc<KeyedModel>,
    cluster: [u64; 14],
    memory: [u64; 2],
    core: Arc<EngineCore>,
    columns: Arc<ColumnStore>,
}

impl CachedCore {
    /// Whether this entry was built for exactly this problem: the key
    /// first, then the model (the same allocation, or else an equal
    /// model), the cluster's words and the memory words. Equal keys alone
    /// prove nothing.
    fn is(
        &self,
        key: &ProblemKey,
        model: &Arc<KeyedModel>,
        cluster: &[u64; 14],
        memory: &[u64; 2],
    ) -> bool {
        self.key == *key
            && (Arc::ptr_eq(&self.model, model) || self.model.model() == model.model())
            && self.cluster == *cluster
            && self.memory == *memory
    }
}

/// A tiny thread-safe LRU: a `Mutex`-guarded vec in recency order. Fine for
/// the capacities the serve daemon uses (tens of entries); lookups are
/// `O(len)` key comparisons but each hit saves an engine build and every
/// pipeline depth the cached core has filled.
struct Lru {
    entries: Mutex<Vec<CachedCore>>,
    cap: usize,
}

impl Lru {
    fn new(cap: usize) -> Self {
        Lru { entries: Mutex::new(Vec::new()), cap }
    }

    /// Looks up the first entry `is_it` accepts, promoting a hit to
    /// most-recent; on miss inserts `build()` and evicts the least-recent
    /// entry past capacity, which frees its column store once no sweep
    /// holds it. Returns `(core, columns, was_hit)`. A build error
    /// propagates to the caller and nothing is inserted (a later lookup
    /// rebuilds). With `cap == 0` the cache is disabled: every call builds
    /// fresh, with a fresh store that keeps nothing.
    fn try_get_or_insert<E>(
        &self,
        is_it: impl Fn(&CachedCore) -> bool,
        build: impl FnOnce() -> Result<CachedCore, E>,
    ) -> Result<(Arc<EngineCore>, Arc<ColumnStore>, bool), E> {
        // Recover from poisoning rather than unwrap: the serve daemon runs
        // query evaluation under `catch_unwind`, and a panic while this lock
        // is held must cost that one request, not brick the cache (and with
        // it every future cached query) for the daemon's lifetime. The
        // guarded Vec is structurally valid at every await-free step above,
        // so the recovered state is safe to keep using.
        let mut entries = self.entries.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(pos) = entries.iter().position(is_it) {
            let entry = entries.remove(pos);
            let found = (Arc::clone(&entry.core), Arc::clone(&entry.columns), true);
            entries.insert(0, entry);
            return Ok(found);
        }
        // Build while holding the lock: concurrent requests for the same key
        // then build once, and the daemon's batcher (the only heavy caller)
        // is single-threaded anyway.
        let entry = build()?;
        let built = (Arc::clone(&entry.core), Arc::clone(&entry.columns), false);
        entries.insert(0, entry);
        entries.truncate(self.cap);
        Ok(built)
    }
}

/// Cumulative hit/miss counters of an [`EngineCache`]: one count per core
/// lookup, so one [`EngineCache::engine`] call is exactly one hit or one
/// miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
}

/// A thread-safe LRU of [`EngineCore`]s, filed under [`ProblemKey`]s.
/// This is the engine-reuse hook behind the `paradl-serve` daemon's
/// cross-request reuse: repeated queries against the same (model, device,
/// cluster, γ·δ) problem skip the engine build entirely and reuse every
/// pipeline depth an earlier query filled, paying only an `O(1)`
/// [`CostEngine::from_core`]. [`EngineCache::engine`] is the one way in.
///
/// The caller resolves its model once into an `Arc<KeyedModel>` and keys
/// the problem once; a lookup hashes nothing. A key is a hash, so a hit
/// confirms the whole problem, not only the key: the model stored at build
/// must be the caller's (`Arc::ptr_eq`) or else equal to it, and the
/// cluster and the config's `δ` and `γ` must match the stored ones field
/// for field, floats by their bits (the words the key hashes). Two
/// problems that collide on one key get two cores, and two column stores.
///
/// Each entry also keeps a [`ColumnStore`]: the problem's resident sweep
/// columns, which the daemon's ranked groups sweep on
/// ([`EngineCache::engine`], [`GridSweep::run_engine`]). A store holds one
/// variant (dataset size and constraints) on a batch axis of at most eight
/// batches, and only from that variant's second ranked group on: one
/// superset at the axis's largest batch (8 bytes a row, or 40 where a
/// strategy does not pack), a prep set per axis batch (14 bytes a
/// memory-feasible row) and one communication column (32 bytes a superset
/// row) — for ResNet-50 and VGG16 on the paper system at four batches,
/// exhaustive to 1 Ki PEs, ≈ 1.0 and 1.3 MB. Left alone, a store at
/// [`DEFAULT_CANDIDATE_CAP`](crate::vet::DEFAULT_CANDIDATE_CAP) superset
/// rows and eight batches would hold 4,000,000 × (40 + 8 × 14 + 32) bytes
/// ≈ 736 MB, and `cap` of them many GB. So the stores of one cache keep at
/// most 344 MB together — the columns a one-batch sweep of a query at
/// that cap holds while it runs — and a sweep whose columns would take
/// them past it frees its columns when it completes. An evicted entry
/// frees its store.
///
/// Capacity `0` disables caching (every lookup builds fresh).
///
/// [`GridSweep::run_engine`]: crate::grid::GridSweep::run_engine
pub struct EngineCache {
    cores: Lru,
    hits: AtomicU64,
    misses: AtomicU64,
    columns: Arc<StoreCounters>,
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
    /// A cache holding up to `cap` engine cores.
    pub fn new(cap: usize) -> Self {
        EngineCache {
            cores: Lru::new(cap),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            columns: Arc::default(),
        }
    }

    /// An engine for `model` on `cluster` at `config`'s batch, whether its
    /// core came from the cache, and the entry's [`ColumnStore`], looked up
    /// under `key` — the problem's [`ProblemKey`], which the caller
    /// computes once. On a miss the core is built with [`CostEngine::new`]
    /// and stored with `model` itself, so a later hit on it confirms the
    /// model by pointer; a build error ([`EngineError`]) propagates with
    /// nothing cached (the miss is still counted). The engine is hydrated
    /// with [`CostEngine::from_core`], so it is byte-for-byte identical to
    /// a fresh build. A `key` that does not belong to the problem costs
    /// hits, never a wrong core. Pass the store to
    /// [`GridSweep::run_engine`] with this engine (or another engine of
    /// this problem) so that a repeated ranked sweep of the problem
    /// computes no column.
    ///
    /// [`GridSweep::run_engine`]: crate::grid::GridSweep::run_engine
    pub fn engine<'a>(
        &self,
        key: &ProblemKey,
        model: &'a Arc<KeyedModel>,
        cluster: &'a ClusterSpec,
        config: TrainingConfig,
    ) -> Result<(CostEngine<'a>, bool, Arc<ColumnStore>), EngineError> {
        let (core, columns, hit) = self.try_core(key, model, cluster, &config, || {
            Ok(CostEngine::new(model.model(), &cluster.device, cluster, config)?.core_handle())
        })?;
        Ok((CostEngine::from_core(model.model(), cluster, config, core)?, hit, columns))
    }

    /// The core and column store of the problem (`key`, `model`,
    /// `cluster`, `config`'s `δ` and `γ`), built with the fallible `build`
    /// on a miss. A build error propagates, nothing is cached, and the miss
    /// is still counted. Returns `(core, columns, was_hit)`.
    fn try_core(
        &self,
        key: &ProblemKey,
        model: &Arc<KeyedModel>,
        cluster: &ClusterSpec,
        config: &TrainingConfig,
        build: impl FnOnce() -> Result<Arc<EngineCore>, EngineError>,
    ) -> Result<(Arc<EngineCore>, Arc<ColumnStore>, bool), EngineError> {
        let (cluster, memory) = (ClusterKey::words(cluster), MemoryKey::words(config));
        let result = self.cores.try_get_or_insert(
            |entry| entry.is(key, model, &cluster, &memory),
            || {
                let model = Arc::clone(model);
                let core = build()?;
                let columns = Arc::new(ColumnStore::counted(&self.columns));
                Ok(CachedCore { key: *key, model, cluster, memory, core, columns })
            },
        );
        let counter = if matches!(result, Ok((_, _, true))) { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// The column stores' counters: hits, misses and admissions of the
    /// ranked groups swept on the entries' stores, and the bytes the live
    /// entries' stores hold.
    pub fn column_stats(&self) -> ColumnStoreStats {
        self.columns.stats()
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
    use crate::compute::{DeviceProfile, TabulatedProfile};
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
        // The power-of-two tables and the non-power-of-two runtime path
        // price each collective with the same entry formula, so they must
        // agree bit for bit on the sizes the tables cover.
        let m = model();
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let engine = CostEngine::new(&m, &d, &c, cfg).expect("engine builds");
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
            // The kernel's ranking identity: the bound plus the priced
            // coefficient row is the estimate's epoch time, bit for bit.
            let comm = engine.comm_phases(s.kind() as u8, &engine.comm_prep(s)).communication();
            assert_eq!(
                (lb + comm).to_bits(),
                est.epoch_time().to_bits(),
                "{s}: kernel time diverged from the estimate"
            );
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

    /// `cache.engine` with the problem keyed from scratch.
    fn lookup<'a>(
        cache: &EngineCache,
        model: &'a Arc<KeyedModel>,
        cluster: &'a ClusterSpec,
        config: TrainingConfig,
    ) -> (CostEngine<'a>, bool) {
        let key = ProblemKey::of(model, cluster, &config);
        let (engine, hit, _) = cache.engine(&key, model, cluster, config).unwrap();
        (engine, hit)
    }

    #[test]
    fn problem_key_ignores_batch_but_not_problem() {
        let m = Arc::new(KeyedModel::new(model()));
        let c = ClusterSpec::paper_system();
        let cfg_a = TrainingConfig::small(4096, 64);
        let mut cfg_b = cfg_a;
        cfg_b.batch_size = 256;
        cfg_b.dataset_size = 9999;
        cfg_b.epochs = 3;
        // Batch/dataset/epochs are not part of the core's validity key.
        let key = ProblemKey::of(&m, &c, &cfg_a);
        assert_eq!(key, ProblemKey::of(&m, &c, &cfg_b));
        // δ and γ are.
        let mut cfg_c = cfg_a;
        cfg_c.memory_reuse = 0.5;
        assert_ne!(key, ProblemKey::of(&m, &c, &cfg_c));
        // So are the model and the cluster.
        let c2 = ClusterSpec::workstation(8);
        assert_ne!(key, ProblemKey::of(&m, &c2, &cfg_a));
        assert_ne!(key.cluster, ProblemKey::of(&m, &c2, &cfg_a).cluster);
        let copy = KeyedModel::new(model());
        assert_eq!(key, ProblemKey::of(&copy, &ClusterSpec::paper_system(), &cfg_a));
        // And the cache agrees: a batch-only change hits, a γ change misses.
        let cache = EngineCache::new(4);
        assert!(!lookup(&cache, &m, &c, cfg_a).1);
        assert!(lookup(&cache, &m, &c, cfg_b).1);
        assert!(!lookup(&cache, &m, &c, cfg_c).1);
    }

    #[test]
    fn engine_cache_hits_reuse_and_evict_lru() {
        let m = Arc::new(KeyedModel::new(model()));
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let at = |memory_reuse: f64| TrainingConfig { memory_reuse, ..cfg };
        let cache = EngineCache::new(2);
        let (first, hit) = lookup(&cache, &m, &c, cfg);
        assert!(!hit);
        let (second, hit) = lookup(&cache, &m, &c, cfg);
        assert!(hit);
        assert!(Arc::ptr_eq(&first.core, &second.core));
        assert_eq!(cache.stats(), EngineCacheStats { hits: 1, misses: 1 });
        // Fill past capacity: the least-recently-used problem falls out.
        lookup(&cache, &m, &c, at(0.5));
        lookup(&cache, &m, &c, at(0.6));
        assert!(lookup(&cache, &m, &c, at(0.6)).1, "the newest entry stays");
        assert!(!lookup(&cache, &m, &c, cfg).1, "LRU entry should have been evicted");
        // Capacity 0 disables caching entirely.
        let off = EngineCache::new(0);
        assert!(!lookup(&off, &m, &c, cfg).1);
        assert!(!lookup(&off, &m, &c, cfg).1);
        assert_eq!(off.stats(), EngineCacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn colliding_keys_get_their_own_column_stores() {
        use crate::grid::GridSweep;
        use crate::oracle::Constraints;
        let a = Arc::new(KeyedModel::new(model()));
        let mut short = model();
        short.layers.truncate(3);
        let b = Arc::new(KeyedModel::new(short));
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let constraints = Constraints { max_pes: 64, top_k: Some(3), ..Constraints::default() };
        // Both problems are filed under one key, and each is swept on its
        // entry's store until the store keeps its columns.
        let key = ProblemKey::forced(7);
        let cache = EngineCache::new(8);
        let sweep = GridSweep::new();
        let mut stores = Vec::new();
        for _ in 0..3 {
            for model in [&a, &b] {
                let (engine, _, columns) = cache.engine(&key, model, &c, cfg).unwrap();
                let kept = sweep.run_engine(&engine, &[32, 64], &constraints, Some(&columns));
                let fresh = sweep.run_engine(&engine, &[32, 64], &constraints, None);
                for (x, y) in kept.cells.iter().zip(&fresh.cells) {
                    assert!(
                        x.report == y.report,
                        "{}: a store served another problem",
                        model.model().name
                    );
                }
                stores.push(columns);
            }
        }
        assert!(!Arc::ptr_eq(&stores[0], &stores[1]), "a colliding problem gets its own store");
        assert!(Arc::ptr_eq(&stores[0], &stores[4]) && Arc::ptr_eq(&stores[1], &stores[5]));
        let stats = cache.column_stats();
        assert_eq!((stats.hits, stats.misses, stats.admissions), (2, 4, 2));
        assert_eq!(cache.stats(), EngineCacheStats { hits: 4, misses: 2 });
        assert!(stats.resident_bytes > 0);
        // An evicted entry frees its store, and its bytes with it.
        let one = EngineCache::new(1);
        for _ in 0..2 {
            let (engine, _, columns) = one.engine(&key, &a, &c, cfg).unwrap();
            sweep.run_engine(&engine, &[32], &constraints, Some(&columns));
        }
        assert!(one.column_stats().resident_bytes > 0, "the second group is kept");
        one.engine(&key, &b, &c, cfg).unwrap();
        assert_eq!(one.column_stats().resident_bytes, 0, "eviction frees the store");
    }

    #[test]
    fn colliding_keys_get_their_own_cores() {
        let a = Arc::new(KeyedModel::new(model()));
        let mut short = model();
        short.layers.truncate(3);
        let b = Arc::new(KeyedModel::new(short));
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        // Every problem below is filed under the same key.
        let key = ProblemKey::forced(7);
        let cache = EngineCache::new(8);
        let mut calls = 0;
        let mut lookup = |model: &Arc<KeyedModel>, cluster: &ClusterSpec, cfg| {
            let (engine, hit, _) = cache.engine(&key, model, cluster, cfg).unwrap();
            calls += 1;
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.misses, calls, "one count per call");
            (engine.core_handle(), hit)
        };
        let (core_a, hit) = lookup(&a, &c, cfg);
        assert!(!hit);
        let (core_b, hit) = lookup(&b, &c, cfg);
        assert!(!hit, "a colliding model must not hit");
        assert!(!Arc::ptr_eq(&core_a, &core_b));
        assert_eq!(core_a.limits, ModelLimits::of(a.model()));
        assert_eq!(core_b.limits, ModelLimits::of(b.model()));
        // Each problem still finds its own core: by pointer, and by value
        // for an equal model in another allocation.
        let (again, hit) = lookup(&a, &c, cfg);
        assert!(hit && Arc::ptr_eq(&again, &core_a));
        let (again, hit) = lookup(&b, &c, cfg);
        assert!(hit && Arc::ptr_eq(&again, &core_b));
        let (again, hit) = lookup(&Arc::new(KeyedModel::new(model())), &c, cfg);
        assert!(hit && Arc::ptr_eq(&again, &core_a));
        // A collision on the cluster or on δ and γ gets its own core too.
        let (core_w, hit) = lookup(&a, &ClusterSpec::workstation(8), cfg);
        assert!(!hit && !Arc::ptr_eq(&core_w, &core_a));
        let half = TrainingConfig { memory_reuse: 0.5, ..cfg };
        let (core_h, hit) = lookup(&a, &c, half);
        assert!(!hit && !Arc::ptr_eq(&core_h, &core_a));
        assert_eq!(core_h.gamma_delta, 0.5 * cfg.bytes_per_item);
        assert_eq!(cache.stats(), EngineCacheStats { hits: 3, misses: 4 });
    }

    #[test]
    fn engine_calls_count_one_core_lookup_each() {
        let m = Arc::new(KeyedModel::new(model()));
        let c = ClusterSpec::paper_system();
        let cache = EngineCache::new(4);
        let (cold, hit) = lookup(&cache, &m, &c, TrainingConfig::small(4096, 64));
        assert!(!hit);
        let (warm, hit) = lookup(&cache, &m, &c, TrainingConfig::small(4096, 128));
        assert!(hit);
        assert!(Arc::ptr_eq(&cold.core, &warm.core), "the warm call must reuse the core");
        assert_eq!(cache.stats(), EngineCacheStats { hits: 1, misses: 1 });
        // An equal model in another allocation is one more lookup, and hits.
        let copy = Arc::new(KeyedModel::new(model()));
        let (by_value, hit) = lookup(&cache, &copy, &c, TrainingConfig::small(4096, 32));
        assert!(hit);
        assert!(Arc::ptr_eq(&cold.core, &by_value.core));
        assert_eq!(cache.stats(), EngineCacheStats { hits: 2, misses: 1 });
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

    /// The test model with measured forward times `fw` for its first three
    /// layers (`c1`, `r1`, `p1`); every other time is V100's.
    fn tabulated(fw: [f64; 3]) -> TabulatedProfile {
        let mut device = TabulatedProfile::new(DeviceProfile::v100());
        for (layer, t) in model().layers.iter().zip(fw) {
            device.insert(layer.name.clone(), t, 1e-6, 0.0);
        }
        device
    }

    #[test]
    fn a_stage_sum_overflow_fails_the_build() {
        // Every layer time and every whole-model sum is finite, but the
        // balanced 5-stage pipeline groups `r1`, `p1` and `c2` into one
        // stage, whose forward time 1e308 + 1e308 overflows.
        let m = model();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        assert!(m.balanced_pipeline_groups(5).contains(&(1..4)));
        let err = CostEngine::new(&m, &tabulated([-1e308, 1e308, 1e308]), &c, cfg)
            .expect_err("an overflowing stage sum must not build");
        match &err {
            EngineError::NonFinite { table, .. } => assert_eq!(*table, "pipeline", "{err}"),
            other => panic!("expected NonFinite, got {other}"),
        }
        // Huge times whose stage sums all stay finite still build; their
        // prefix sums defeat the cheap bound, so every depth was filled and
        // checked at build.
        let filled =
            |e: &CostEngine<'_>| e.core.depths.iter().filter(|d| d.get().is_some()).count();
        let huge = CostEngine::new(&m, &tabulated([1e308, -1e308, 1e308]), &c, cfg)
            .expect("finite stage sums build");
        assert!(!huge.core.depths_are_finite());
        assert_eq!(filled(&huge), m.num_layers());
        // An ordinary model takes the lazy path: its build fills no depth,
        // and a read fills only the depth it prices.
        let lazy = CostEngine::new(&m, &DeviceProfile::v100(), &c, cfg).expect("engine builds");
        assert!(lazy.core.depths_are_finite());
        assert_eq!(filled(&lazy), 0);
        lazy.memory_per_pe(Strategy::Pipeline { p: 3, segments: 1 });
        assert_eq!(filled(&lazy), 1);
        assert!(lazy.core.depths[2].get().is_some());
    }

    #[test]
    fn try_core_propagates_errors_without_caching() {
        let m = Arc::new(KeyedModel::new(model()));
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let key = ProblemKey::of(&m, &c, &cfg);
        let cache = EngineCache::new(4);
        let err = cache
            .try_core(&key, &m, &c, &cfg, || Err(EngineError::Config("nope".into())))
            .expect_err("builder error propagates");
        assert_eq!(err, EngineError::Config("nope".into()));
        let build = || Ok(CostEngine::new(m.model(), &c.device, &c, cfg)?.core_handle());
        let (core, _, hit) = cache.try_core(&key, &m, &c, &cfg, build).expect("build succeeds");
        assert!(!hit, "a failed build must not be cached");
        let (again, _, hit) =
            cache.try_core(&key, &m, &c, &cfg, || panic!("must not rebuild on a hit")).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&core, &again));
        assert_eq!(cache.stats(), EngineCacheStats { hits: 1, misses: 2 });
    }
}
