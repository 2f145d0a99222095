//! The analytical cost model (paper Table 3 and Appendix A).
//!
//! For each strategy we compute the per-epoch computation time, the per-epoch
//! communication time broken down by phase, and the maximum memory per PE.
//! The formulas are transcribed directly from the paper; the per-layer compute
//! times `FW_l`, `BW_l`, `WU_l` come from a [`ComputeModel`] and the
//! communication parameters from the [`ClusterSpec`] / [`CommModel`].
//!
//! [`estimate`] walks the layers per call: it is the test reference behind
//! [`crate::oracle::Oracle::search_reference`]. Every answer the oracle gives
//! is priced by the precomputed [`crate::engine::CostEngine`] instead.

use crate::cluster::ClusterSpec;
use crate::comm::CommModel;
use crate::compute::ComputeModel;
use crate::config::TrainingConfig;
use crate::memory;
use crate::model::Model;
use crate::strategy::{SpatialSplit, Strategy};

/// Time breakdown of one epoch (or one iteration), in seconds, split by the
/// training phases the paper distinguishes (§5.3.1): forward/backward compute,
/// weight-update compute, gradient-exchange Allreduce (GE), layer-wise
/// collectives in the forward/backward passes (FB-Allgather / FB-Allreduce),
/// halo exchange (FB-Halo) and pipeline stage-to-stage P2P (FB-layer).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseBreakdown {
    /// Forward + backward computation time.
    pub forward_backward: f64,
    /// Weight-update computation time.
    pub weight_update: f64,
    /// Gradient-exchange Allreduce time (data/spatial/hybrid).
    pub gradient_exchange: f64,
    /// Layer-wise collective communication (filter/channel/hybrid FB phase).
    pub fb_collective: f64,
    /// Halo-exchange communication (spatial).
    pub halo_exchange: f64,
    /// Pipeline activation/gradient P2P communication.
    pub pipeline_p2p: f64,
}

impl PhaseBreakdown {
    /// Total computation time.
    pub fn compute(&self) -> f64 {
        self.forward_backward + self.weight_update
    }

    /// Total communication time.
    pub fn communication(&self) -> f64 {
        self.gradient_exchange + self.fb_collective + self.halo_exchange + self.pipeline_p2p
    }

    /// Total time (compute + communication; the oracle assumes no overlap,
    /// matching the paper's projection).
    pub fn total(&self) -> f64 {
        self.compute() + self.communication()
    }

    /// Scales every component by a factor (e.g. epoch → iteration).
    pub fn scaled(&self, factor: f64) -> PhaseBreakdown {
        PhaseBreakdown {
            forward_backward: self.forward_backward * factor,
            weight_update: self.weight_update * factor,
            gradient_exchange: self.gradient_exchange * factor,
            fb_collective: self.fb_collective * factor,
            halo_exchange: self.halo_exchange * factor,
            pipeline_p2p: self.pipeline_p2p * factor,
        }
    }

    /// Element-wise sum of two breakdowns.
    pub fn add(&self, other: &PhaseBreakdown) -> PhaseBreakdown {
        PhaseBreakdown {
            forward_backward: self.forward_backward + other.forward_backward,
            weight_update: self.weight_update + other.weight_update,
            gradient_exchange: self.gradient_exchange + other.gradient_exchange,
            fb_collective: self.fb_collective + other.fb_collective,
            halo_exchange: self.halo_exchange + other.halo_exchange,
            pipeline_p2p: self.pipeline_p2p + other.pipeline_p2p,
        }
    }
}

/// Full cost estimate produced by the oracle for one (model, strategy,
/// system, configuration) combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// The strategy that was evaluated.
    pub strategy: Strategy,
    /// Per-epoch time breakdown.
    pub per_epoch: PhaseBreakdown,
    /// Number of iterations per epoch `I = D/B`.
    pub iterations: usize,
    /// Maximum memory required on any single PE, in bytes.
    pub memory_per_pe_bytes: f64,
}

impl CostEstimate {
    /// Per-iteration breakdown (`per_epoch / I`).
    pub fn per_iteration(&self) -> PhaseBreakdown {
        self.per_epoch.scaled(1.0 / self.iterations.max(1) as f64)
    }

    /// Per-epoch total time.
    pub fn epoch_time(&self) -> f64 {
        self.per_epoch.total()
    }
}

/// Per-layer compute aggregates used by several strategies.
struct ComputeSums {
    fw_bw_per_sample: f64,
    wu_per_iteration: f64,
}

fn compute_sums<C: ComputeModel + ?Sized>(model: &Model, device: &C) -> ComputeSums {
    let fw_bw_per_sample: f64 =
        model.layers.iter().map(|l| device.forward_time(l) + device.backward_time(l)).sum();
    let wu_per_iteration: f64 = model.layers.iter().map(|l| device.weight_update_time(l)).sum();
    ComputeSums { fw_bw_per_sample, wu_per_iteration }
}

/// Evaluates the analytical cost model for `strategy` by walking the layers
/// (the reference; [`crate::oracle::Oracle::project`] prices through the
/// engine).
///
/// `config.batch_size` is the *global* mini-batch `B`; under weak scaling the
/// caller is expected to have already scaled it with the PE count.
pub fn estimate<C: ComputeModel + ?Sized>(
    model: &Model,
    device: &C,
    cluster: &ClusterSpec,
    config: &TrainingConfig,
    strategy: Strategy,
) -> CostEstimate {
    let memory_per_pe_bytes = memory::memory_per_pe(model, config, strategy);
    estimate_with_memory(model, device, cluster, config, strategy, memory_per_pe_bytes)
}

/// Like [`estimate`], but reuses a per-PE memory value the caller already
/// computed. This per-layer walk is the *reference* implementation of the
/// cost model: the search hot path goes through the precomputed
/// [`crate::engine::CostEngine`] instead, and the engine's property tests
/// assert it reproduces this function for every strategy kind.
pub fn estimate_with_memory<C: ComputeModel + ?Sized>(
    model: &Model,
    device: &C,
    cluster: &ClusterSpec,
    config: &TrainingConfig,
    strategy: Strategy,
    memory_per_pe_bytes: f64,
) -> CostEstimate {
    let d = config.dataset_size as f64;
    let b = config.batch_size as f64;
    let iters = config.iterations_per_epoch() as f64;
    let delta = config.bytes_per_item;
    let sums = compute_sums(model, device);
    let total_weight_bytes = model.total_weights() as f64 * delta;

    let mut breakdown = PhaseBreakdown::default();

    match strategy {
        Strategy::Serial => {
            breakdown.forward_backward = d * sums.fw_bw_per_sample;
            breakdown.weight_update = iters * sums.wu_per_iteration;
        }
        Strategy::Data { p } => {
            let pf = p as f64;
            breakdown.forward_backward = d / pf * sums.fw_bw_per_sample;
            breakdown.weight_update = iters * sums.wu_per_iteration;
            let comm = cluster.comm_model(p);
            breakdown.gradient_exchange = iters * comm.allreduce(p, total_weight_bytes);
        }
        Strategy::Spatial { split } => {
            let p = split.total();
            let pf = p as f64;
            breakdown.forward_backward = d / pf * sums.fw_bw_per_sample;
            breakdown.weight_update = iters * sums.wu_per_iteration;
            let comm = cluster.comm_model(p);
            breakdown.gradient_exchange = iters * comm.allreduce(p, total_weight_bytes);
            breakdown.halo_exchange = iters * halo_time(model, &comm, &split, b, delta);
        }
        Strategy::Filter { p } | Strategy::Channel { p } => {
            let pf = p as f64;
            breakdown.forward_backward = d / pf * sums.fw_bw_per_sample;
            breakdown.weight_update = iters / pf * sums.wu_per_iteration;
            let comm = cluster.comm_model(p);
            breakdown.fb_collective =
                iters * layerwise_collective_time(model, &comm, p, p, b, delta);
        }
        Strategy::Pipeline { p, segments } => {
            let groups = model.balanced_pipeline_groups(p);
            let s = segments.max(1) as f64;
            let pf = p as f64;
            // Per-group per-sample forward/backward times and per-iteration WU.
            let mut max_fw = 0f64;
            let mut max_bw = 0f64;
            let mut max_wu = 0f64;
            let mut boundary_act: Vec<f64> = Vec::new();
            for (gi, range) in groups.iter().enumerate() {
                let fw: f64 =
                    model.layers[range.clone()].iter().map(|l| device.forward_time(l)).sum();
                let bw: f64 =
                    model.layers[range.clone()].iter().map(|l| device.backward_time(l)).sum();
                let wu: f64 =
                    model.layers[range.clone()].iter().map(|l| device.weight_update_time(l)).sum();
                max_fw = max_fw.max(fw);
                max_bw = max_bw.max(bw);
                max_wu = max_wu.max(wu);
                if gi + 1 < groups.len() {
                    let last = range.end - 1;
                    boundary_act.push(model.layers[last].output_size() as f64);
                }
            }
            breakdown.forward_backward = d * (pf + s - 1.0) / s * (max_fw + max_bw);
            breakdown.weight_update = iters * max_wu;
            // P2P communication: 2·D(p+S−2)/B · max(α + (B/S)|y_Gi|δβ).
            let comm = cluster.comm_model(p.min(cluster.gpus_per_node.max(2)));
            let max_p2p =
                boundary_act.iter().map(|&a| comm.p2p(b / s * a * delta)).fold(0.0f64, f64::max);
            if p > 1 {
                breakdown.pipeline_p2p = 2.0 * d * (pf + s - 2.0) / b * max_p2p;
            }
        }
        Strategy::DataFilter { p1, p2 } => {
            let p = (p1 * p2) as f64;
            breakdown.forward_backward = d / p * sums.fw_bw_per_sample;
            breakdown.weight_update = iters / p2 as f64 * sums.wu_per_iteration;
            // Intra-group layer-wise collectives over p2 PEs; the activation
            // buffer per group is B/p1 samples, so per-PE share is B|y_l|/p.
            let intra = cluster.comm_model(p2.min(cluster.gpus_per_node));
            breakdown.fb_collective =
                iters * layerwise_collective_time(model, &intra, p2, p1 * p2, b, delta);
            // Inter-group gradient exchange on the weight shard |w|/p2, with
            // the contention coefficient φ = number of concurrent segmented
            // Allreduces sharing the inter-node link (paper §5.2 uses φ = 2).
            let inter = cluster
                .comm_model_inter_group(p1, p2)
                .with_contention(cluster.segmented_allreduce_contention(p2));
            breakdown.gradient_exchange =
                iters * inter.allreduce(p1, total_weight_bytes / p2 as f64);
        }
        Strategy::DataSpatial { p1, split } => {
            let p2 = split.total();
            let p = (p1 * p2) as f64;
            breakdown.forward_backward = d / p * sums.fw_bw_per_sample;
            breakdown.weight_update = iters * sums.wu_per_iteration;
            // Halo exchange within each spatial group on the group micro-batch
            // B/p1.
            let intra = cluster.comm_model(p2.min(cluster.gpus_per_node));
            breakdown.halo_exchange =
                iters * halo_time(model, &intra, &split, b / p1 as f64, delta);
            // Hierarchical gradient exchange: local reduce to a leader, global
            // Allreduce among the p1 leaders, local broadcast (§4.5.1 / §5.3.1).
            let inter = cluster.comm_model_inter_group(p1, p2);
            breakdown.gradient_exchange =
                iters * hierarchical_allreduce_time(&intra, &inter, p2, p1, total_weight_bytes);
        }
    }

    CostEstimate {
        strategy,
        per_epoch: breakdown,
        iterations: config.iterations_per_epoch(),
        memory_per_pe_bytes,
    }
}

/// Halo-exchange time for one iteration (paper Eq. 10):
/// `Σ_l (2α + B(halo(x_l) + halo(dL/dy_l))·δ·β)`, doubled for the forward and
/// backward passes.
fn halo_time(model: &Model, comm: &CommModel, split: &SpatialSplit, batch: f64, delta: f64) -> f64 {
    let mut t = 0.0;
    for l in &model.layers {
        let factors = split.factors(l.spatial_dims());
        let halo_x = l.halo_size(&factors) as f64;
        if halo_x == 0.0 {
            continue;
        }
        // halo(dL/dy) has the same order as halo(x) for stride-1 convolutions;
        // we use the output-side halo computed on the activation shape.
        let halo_dy = halo_x * (l.output_size() as f64 / l.input_size().max(1) as f64);
        t += 2.0 * comm.p2p(0.0) + batch * (halo_x + halo_dy) * delta * comm.link.beta;
    }
    2.0 * t
}

/// Layer-wise collective time of filter/channel parallelism for one iteration
/// (paper Eq. 15/19): `3(p−1) Σ_{l<G} (α + B|y_l|/p_total·δ·β)`.
///
/// `p` is the size of the collective communicator; `p_total` is the divisor of
/// the per-PE activation share (equal to `p` for pure filter/channel, and to
/// `p1·p2` for the hybrid where the batch is also split).
fn layerwise_collective_time(
    model: &Model,
    comm: &CommModel,
    p: usize,
    p_total: usize,
    batch: f64,
    delta: f64,
) -> f64 {
    if p <= 1 {
        return 0.0;
    }
    let pf = p as f64;
    let mut t = 0.0;
    let g = model.layers.len();
    for (i, l) in model.layers.iter().enumerate() {
        if i + 1 == g {
            // No Allgather after the last layer (paper footnote 7).
            continue;
        }
        let act_bytes = batch * l.output_size() as f64 / p_total as f64 * delta;
        t += 3.0 * (pf - 1.0) * (comm.link.alpha + act_bytes * comm.link.beta * comm.contention);
    }
    t
}

/// Hierarchical (leader-based) Allreduce used by the Data+Spatial hybrid:
/// local reduce to one leader per group, ring Allreduce among the `groups`
/// leaders, then local broadcast. The paper observes this costs more than 2×
/// a flat data-parallel Allreduce (§5.3.1).
pub fn hierarchical_allreduce_time(
    intra: &CommModel,
    inter: &CommModel,
    group_size: usize,
    groups: usize,
    bytes: f64,
) -> f64 {
    let mut t = 0.0;
    if group_size > 1 {
        // Flat reduce to the leader: each non-leader sends the full buffer.
        t += (group_size as f64 - 1.0) * intra.p2p(bytes) * 0.5
            + intra.reduce_scatter(group_size, bytes);
        // Local broadcast of the updated gradients back to the group.
        t += intra.broadcast(group_size, bytes);
    }
    if groups > 1 {
        t += inter.allreduce(groups, bytes);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::DeviceProfile;
    use crate::layer::Layer;
    use crate::strategy::StrategyKind;

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
                Layer::relu("r2", 32, &[16, 16]),
                Layer::global_pool("g", 32, &[16, 16]),
                Layer::fully_connected("fc", 32, 10),
            ],
        )
    }

    fn setup() -> (Model, DeviceProfile, ClusterSpec, TrainingConfig) {
        (
            model(),
            DeviceProfile::v100(),
            ClusterSpec::paper_system(),
            TrainingConfig::small(4096, 64),
        )
    }

    #[test]
    fn serial_has_no_communication() {
        let (m, d, c, cfg) = setup();
        let e = estimate(&m, &d, &c, &cfg, Strategy::Serial);
        assert_eq!(e.per_epoch.communication(), 0.0);
        assert!(e.per_epoch.compute() > 0.0);
    }

    #[test]
    fn data_parallelism_divides_compute_by_p() {
        let (m, d, c, cfg) = setup();
        let serial = estimate(&m, &d, &c, &cfg, Strategy::Serial);
        let data = estimate(&m, &d, &c, &cfg, Strategy::Data { p: 8 });
        let ratio = serial.per_epoch.forward_backward / data.per_epoch.forward_backward;
        assert!((ratio - 8.0).abs() < 1e-9);
        // Weight update is replicated, not divided.
        assert!((serial.per_epoch.weight_update - data.per_epoch.weight_update).abs() < 1e-12);
        assert!(data.per_epoch.gradient_exchange > 0.0);
    }

    #[test]
    fn data_at_p1_equals_serial_compute() {
        let (m, d, c, cfg) = setup();
        let serial = estimate(&m, &d, &c, &cfg, Strategy::Serial);
        let data1 = estimate(&m, &d, &c, &cfg, Strategy::Data { p: 1 });
        assert!((serial.per_epoch.total() - data1.per_epoch.total()).abs() < 1e-9);
    }

    #[test]
    fn gradient_exchange_matches_ring_formula() {
        let (m, d, c, cfg) = setup();
        let p = 16;
        let e = estimate(&m, &d, &c, &cfg, Strategy::Data { p });
        let comm = c.comm_model(p);
        let bytes = m.total_weights() as f64 * cfg.bytes_per_item;
        let expected = cfg.iterations_per_epoch() as f64 * comm.allreduce(p, bytes);
        assert!((e.per_epoch.gradient_exchange - expected).abs() < 1e-9);
    }

    #[test]
    fn filter_divides_weight_update_too() {
        let (m, d, c, cfg) = setup();
        let serial = estimate(&m, &d, &c, &cfg, Strategy::Serial);
        let filt = estimate(&m, &d, &c, &cfg, Strategy::Filter { p: 8 });
        assert!(filt.per_epoch.weight_update < serial.per_epoch.weight_update);
        assert!(filt.per_epoch.fb_collective > 0.0);
        assert_eq!(filt.per_epoch.gradient_exchange, 0.0);
    }

    #[test]
    fn channel_and_filter_have_equal_analytic_cost() {
        let (m, d, c, cfg) = setup();
        let f = estimate(&m, &d, &c, &cfg, Strategy::Filter { p: 8 });
        let ch = estimate(&m, &d, &c, &cfg, Strategy::Channel { p: 8 });
        assert!((f.per_epoch.total() - ch.per_epoch.total()).abs() < 1e-12);
    }

    #[test]
    fn spatial_has_halo_and_gradient_exchange() {
        let (m, d, c, cfg) = setup();
        let s =
            estimate(&m, &d, &c, &cfg, Strategy::Spatial { split: SpatialSplit::balanced_2d(4) });
        assert!(s.per_epoch.halo_exchange > 0.0);
        assert!(s.per_epoch.gradient_exchange > 0.0);
        assert_eq!(s.per_epoch.fb_collective, 0.0);
    }

    #[test]
    fn pipeline_bubble_shrinks_with_more_segments() {
        let (m, d, c, cfg) = setup();
        let few = estimate(&m, &d, &c, &cfg, Strategy::Pipeline { p: 4, segments: 1 });
        let many = estimate(&m, &d, &c, &cfg, Strategy::Pipeline { p: 4, segments: 16 });
        assert!(many.per_epoch.forward_backward < few.per_epoch.forward_backward);
    }

    #[test]
    fn hybrid_df_has_both_comm_kinds() {
        let (m, d, c, cfg) = setup();
        let e = estimate(&m, &d, &c, &cfg, Strategy::DataFilter { p1: 4, p2: 4 });
        assert!(e.per_epoch.fb_collective > 0.0);
        assert!(e.per_epoch.gradient_exchange > 0.0);
        // Compute divided by p = 16.
        let serial = estimate(&m, &d, &c, &cfg, Strategy::Serial);
        let ratio = serial.per_epoch.forward_backward / e.per_epoch.forward_backward;
        assert!((ratio - 16.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_ds_hierarchical_allreduce_costs_more_than_flat() {
        // Use a model with a large weight buffer so the Allreduce is
        // bandwidth-dominated (the regime where the paper observes the >2×
        // overhead of the hierarchical scheme).
        let m = Model::new(
            "big-weights",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 64, (32, 32), 3, 1, 1),
                Layer::global_pool("g", 64, &[32, 32]),
                Layer::fully_connected("fc1", 64, 4096),
                Layer::fully_connected("fc2", 4096, 4096),
            ],
        );
        let d = DeviceProfile::v100();
        let c = ClusterSpec::paper_system();
        let cfg = TrainingConfig::small(4096, 64);
        let p = 16;
        let ds = estimate(
            &m,
            &d,
            &c,
            &cfg,
            Strategy::DataSpatial { p1: p / 4, split: SpatialSplit::balanced_2d(4) },
        );
        let data = estimate(&m, &d, &c, &cfg, Strategy::Data { p });
        assert!(ds.per_epoch.gradient_exchange > data.per_epoch.gradient_exchange);
    }

    #[test]
    fn per_iteration_scales_by_iteration_count() {
        let (m, d, c, cfg) = setup();
        let e = estimate(&m, &d, &c, &cfg, Strategy::Data { p: 8 });
        let per_iter = e.per_iteration();
        assert!((per_iter.total() * e.iterations as f64 - e.per_epoch.total()).abs() < 1e-9);
    }

    #[test]
    fn all_strategies_produce_finite_positive_times() {
        let (m, d, c, cfg) = setup();
        let strategies = [
            Strategy::Serial,
            Strategy::Data { p: 8 },
            Strategy::Spatial { split: SpatialSplit::balanced_2d(4) },
            Strategy::Filter { p: 8 },
            Strategy::Channel { p: 8 },
            Strategy::Pipeline { p: 4, segments: 8 },
            Strategy::DataFilter { p1: 4, p2: 4 },
            Strategy::DataSpatial { p1: 4, split: SpatialSplit::balanced_2d(4) },
        ];
        for s in strategies {
            let e = estimate(&m, &d, &c, &cfg, s);
            assert!(e.per_epoch.total().is_finite(), "{s}");
            assert!(e.per_epoch.total() > 0.0, "{s}");
            assert!(e.memory_per_pe_bytes > 0.0, "{s}");
        }
        let _ = StrategyKind::ALL;
    }
}
