//! The distributed-training simulator: the "measured" side of the
//! reproduction.
//!
//! For each parallel strategy the simulator executes one training iteration
//! mechanism-by-mechanism — per-layer compute on each PE (with framework
//! overheads), collective communication as step-by-step schedules routed over
//! the fat-tree with link-level contention, halo exchanges, and the pipeline
//! dependency schedule — and aggregates the result into the same
//! [`PhaseBreakdown`] the oracle produces, so the two can be compared with
//! the paper's accuracy metric.

use crate::overheads::{OverheadModel, OverheadSampler};
use paradl_core::cluster::ClusterSpec;
use paradl_core::compute::ComputeModel;
use paradl_core::config::TrainingConfig;
use paradl_core::cost::PhaseBreakdown;
use paradl_core::model::Model;
use paradl_core::strategy::{SpatialSplit, Strategy};
use paradl_net::collectives::{
    halo_exchange, hierarchical_allreduce, ring_allgather, ring_allreduce, segmented_allreduce,
};
use paradl_net::contention::schedule_time;
use paradl_net::topology::FatTree;
use std::ops::Range;

/// Result of simulating a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredResult {
    /// The simulated strategy.
    pub strategy: Strategy,
    /// Average per-iteration time breakdown over the sampled iterations.
    pub per_iteration: PhaseBreakdown,
    /// Extrapolated per-epoch breakdown (`per_iteration × I`).
    pub per_epoch: PhaseBreakdown,
    /// Number of iterations actually simulated.
    pub sampled_iterations: usize,
}

/// The deterministic network side of one iteration of a strategy (its
/// collective times and pipeline layout), priced once per
/// [`Simulator::simulate`] call and shared by every sampled iteration,
/// which scales the times by its own congestion draws.
#[derive(Debug, Default)]
struct NetworkBase {
    gradient_exchange: f64,
    fb_collective: f64,
    halo_exchange: f64,
    /// Layer ranges of the pipeline stages.
    pipeline_stages: Vec<Range<usize>>,
    /// Activation transfer time between consecutive pipeline stages.
    pipeline_transfers: Vec<f64>,
}

/// The distributed-training simulator.
pub struct Simulator<'a, C: ComputeModel + ?Sized> {
    /// Per-layer compute-time source (same as the oracle's, by construction —
    /// the paper profiles one set of layer times and feeds both sides).
    pub device: &'a C,
    /// Cluster description used to build the fat-tree.
    pub cluster: &'a ClusterSpec,
    /// Framework overhead model.
    pub overheads: OverheadModel,
    /// Number of iterations to simulate and average (the paper averages 100).
    pub sample_iterations: usize,
    /// RNG seed for the overhead draws.
    pub seed: u64,
}

impl<'a, C: ComputeModel + ?Sized> Simulator<'a, C> {
    /// Creates a simulator with the default (congestion-free) overheads and
    /// 10 sampled iterations.
    pub fn new(device: &'a C, cluster: &'a ClusterSpec) -> Self {
        Simulator {
            device,
            cluster,
            overheads: OverheadModel::default(),
            sample_iterations: 10,
            seed: 0x5EED,
        }
    }

    /// Replaces the overhead model.
    pub fn with_overheads(mut self, overheads: OverheadModel) -> Self {
        self.overheads = overheads;
        self
    }

    /// Sets the number of sampled iterations.
    pub fn with_samples(mut self, iterations: usize) -> Self {
        self.sample_iterations = iterations.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn topology(&self, pes: usize) -> FatTree {
        if pes <= self.cluster.gpus_per_node {
            // All traffic stays on the node's intra-node links.
            FatTree {
                intra_node: self.cluster.intra_node,
                ..FatTree::single_node(self.cluster.gpus_per_node)
            }
        } else {
            // The simulated tree prices the same per-level links the
            // analytical oracle does — previously this was hardwired to the
            // paper system, so different cluster specs "measured" identical
            // times and the conformance cluster axis carried no signal.
            FatTree::from_cluster(self.cluster, pes)
        }
    }

    /// Simulates `strategy` training `model` under `config` and returns the
    /// measured-like time breakdown.
    ///
    /// The collective schedules do not depend on the sampled overheads, so
    /// their times are priced once per call; each sampled iteration then
    /// draws its overheads and applies them to those times.
    pub fn simulate(
        &self,
        model: &Model,
        config: &TrainingConfig,
        strategy: Strategy,
    ) -> MeasuredResult {
        let network = self.network_base(model, config, strategy);
        let mut sampler = OverheadSampler::new(self.overheads, self.seed);
        let iters = config.iterations_per_epoch();
        let mut acc = PhaseBreakdown::default();
        for _ in 0..self.sample_iterations {
            let one = self.simulate_iteration(model, config, strategy, &network, &mut sampler);
            acc = acc.add(&one);
        }
        let per_iteration = acc.scaled(1.0 / self.sample_iterations as f64);
        MeasuredResult {
            strategy,
            per_iteration,
            per_epoch: per_iteration.scaled(iters as f64),
            sampled_iterations: self.sample_iterations,
        }
    }

    /// Prices the network work of one iteration of `strategy` over the
    /// real topology, before any overhead is applied.
    fn network_base(
        &self,
        model: &Model,
        config: &TrainingConfig,
        strategy: Strategy,
    ) -> NetworkBase {
        let b = config.batch_size as f64;
        let delta = config.bytes_per_item;
        let weight_bytes = model.total_weights() as f64 * delta;
        let mut base = NetworkBase::default();
        match strategy {
            Strategy::Serial => {}
            Strategy::Data { p } => {
                let ranks: Vec<usize> = (0..p).collect();
                base.gradient_exchange =
                    schedule_time(&self.topology(p), &ring_allreduce(&ranks, weight_bytes));
            }
            Strategy::Spatial { split } => {
                let p = split.total();
                let topo = self.topology(p);
                let ranks: Vec<usize> = (0..p).collect();
                base.gradient_exchange =
                    schedule_time(&topo, &ring_allreduce(&ranks, weight_bytes));
                base.halo_exchange = self.halo_time(model, &topo, &ranks, &split, b, delta);
            }
            Strategy::Filter { p } | Strategy::Channel { p } => {
                let ranks: Vec<usize> = (0..p).collect();
                base.fb_collective =
                    self.layerwise_collectives(model, &self.topology(p), &ranks, p, b, delta);
            }
            Strategy::Pipeline { p, segments } => {
                base.pipeline_stages = model.balanced_pipeline_groups(p);
                base.pipeline_transfers =
                    self.pipeline_transfers(model, config, &base.pipeline_stages, segments);
            }
            Strategy::DataFilter { p1, p2 } => {
                let p = p1 * p2;
                let topo = self.topology(p);
                // Intra-group layer-wise collectives (groups are consecutive
                // ranks, i.e. the GPUs of one node).
                let group0: Vec<usize> = (0..p2).collect();
                base.fb_collective =
                    self.layerwise_collectives(model, &topo, &group0, p, b / p1 as f64, delta);
                // Segmented Allreduce: p2 concurrent rings, one per weight
                // shard, each spanning the p1 groups (strided ranks).
                let segments: Vec<Vec<usize>> =
                    (0..p2).map(|g| (0..p1).map(|n| n * p2 + g).collect()).collect();
                base.gradient_exchange =
                    schedule_time(&topo, &segmented_allreduce(&segments, weight_bytes / p2 as f64));
            }
            Strategy::DataSpatial { p1, split } => {
                let p2 = split.total();
                let topo = self.topology(p1 * p2);
                let group0: Vec<usize> = (0..p2).collect();
                base.halo_exchange =
                    self.halo_time(model, &topo, &group0, &split, b / p1 as f64, delta);
                // Hierarchical Allreduce: one group per node.
                let groups: Vec<Vec<usize>> =
                    (0..p1).map(|n| (0..p2).map(|g| n * p2 + g).collect()).collect();
                base.gradient_exchange =
                    schedule_time(&topo, &hierarchical_allreduce(&groups, weight_bytes));
            }
        }
        base
    }

    /// One sampled iteration: compute with fresh overhead draws, and the
    /// pre-priced network times scaled by fresh congestion draws. The draw
    /// order per strategy is fixed (compute first, then each collective in
    /// phase order), so a seed always yields the same measurements.
    fn simulate_iteration(
        &self,
        model: &Model,
        config: &TrainingConfig,
        strategy: Strategy,
        network: &NetworkBase,
        sampler: &mut OverheadSampler,
    ) -> PhaseBreakdown {
        let b = config.batch_size as f64;
        let mut out = PhaseBreakdown::default();

        match strategy {
            Strategy::Serial => {
                out.forward_backward = self.compute_full(model, b, sampler);
                out.weight_update = self.weight_update_full(model);
            }
            Strategy::Data { p } => {
                out.forward_backward = self.compute_full(model, b / p as f64, sampler);
                out.weight_update = self.weight_update_full(model);
                out.gradient_exchange = network.gradient_exchange * sampler.congestion_multiplier();
            }
            Strategy::Spatial { split } => {
                out.forward_backward = self.compute_full(model, b / split.total() as f64, sampler);
                out.weight_update = self.weight_update_full(model);
                out.gradient_exchange = network.gradient_exchange * sampler.congestion_multiplier();
                out.halo_exchange = network.halo_exchange * sampler.congestion_multiplier();
            }
            Strategy::Filter { p } | Strategy::Channel { p } => {
                out.forward_backward = self.compute_split(model, b, p, sampler);
                out.weight_update = self.weight_update_full(model) / p as f64;
                out.fb_collective = network.fb_collective * sampler.congestion_multiplier();
            }
            Strategy::Pipeline { segments, .. } => {
                let (fb, p2p) = self.pipeline_iteration(model, config, network, segments, sampler);
                out.forward_backward = fb;
                out.pipeline_p2p = p2p;
                // Weight update of the slowest stage.
                out.weight_update = network
                    .pipeline_stages
                    .iter()
                    .map(|r| {
                        model.layers[r.clone()]
                            .iter()
                            .map(|l| self.device.weight_update_time(l))
                            .sum::<f64>()
                    })
                    .fold(0.0, f64::max);
            }
            Strategy::DataFilter { p1, p2 } => {
                // Filter parallelism within node-sized groups on B/p1 samples.
                out.forward_backward = self.compute_split(model, b / p1 as f64, p2, sampler);
                out.weight_update = self.weight_update_full(model) / p2 as f64;
                out.fb_collective = network.fb_collective * sampler.congestion_multiplier();
                out.gradient_exchange = network.gradient_exchange * sampler.congestion_multiplier();
            }
            Strategy::DataSpatial { p1, split } => {
                let p = p1 * split.total();
                out.forward_backward = self.compute_full(model, b / p as f64, sampler);
                out.weight_update = self.weight_update_full(model);
                out.halo_exchange = network.halo_exchange * sampler.congestion_multiplier();
                out.gradient_exchange = network.gradient_exchange * sampler.congestion_multiplier();
            }
        }
        out
    }

    /// Forward+backward compute for `samples` samples with the full model on
    /// one PE (data/spatial/serial paths).
    fn compute_full(&self, model: &Model, samples: f64, sampler: &mut OverheadSampler) -> f64 {
        let per_sample: f64 = model
            .layers
            .iter()
            .map(|l| self.device.forward_time(l) + self.device.backward_time(l))
            .sum();
        per_sample * samples * sampler.compute_multiplier()
    }

    /// Forward+backward compute when each conv-like layer's work is split
    /// over `p` PEs (filter/channel paths), including the imperfect-scaling
    /// factor and split/concat glue of the framework (Figure 8).
    fn compute_split(
        &self,
        model: &Model,
        samples: f64,
        p: usize,
        sampler: &mut OverheadSampler,
    ) -> f64 {
        let frac = 1.0 / p as f64;
        let scale = sampler.split_scaling_factor(p);
        let per_sample: f64 = model
            .layers
            .iter()
            .map(|l| {
                if l.kind.is_conv_like() {
                    (self.device.forward_time_split(l, frac)
                        + self.device.backward_time_split(l, frac))
                        * scale
                } else {
                    self.device.forward_time(l) + self.device.backward_time(l)
                }
            })
            .sum();
        per_sample * samples * sampler.compute_multiplier()
            + sampler.split_concat_time(model.num_layers())
    }

    fn weight_update_full(&self, model: &Model) -> f64 {
        model.layers.iter().map(|l| self.device.weight_update_time(l)).sum()
    }

    /// Layer-wise Allgather (forward) + Allreduce (backward) of filter/channel
    /// parallelism, per iteration, over the real topology.
    fn layerwise_collectives(
        &self,
        model: &Model,
        topo: &FatTree,
        ranks: &[usize],
        p_total: usize,
        batch: f64,
        delta: f64,
    ) -> f64 {
        let mut t = 0.0;
        let g = model.layers.len();
        for (i, l) in model.layers.iter().enumerate() {
            if i + 1 == g {
                continue;
            }
            let act_bytes = batch * l.output_size() as f64 / p_total as f64 * delta;
            let full_bytes = act_bytes * ranks.len() as f64;
            t += schedule_time(topo, &ring_allgather(ranks, full_bytes));
            t += schedule_time(topo, &ring_allreduce(ranks, full_bytes));
        }
        t
    }

    /// Halo-exchange time per iteration for a spatial split over `ranks`.
    fn halo_time(
        &self,
        model: &Model,
        topo: &FatTree,
        ranks: &[usize],
        split: &SpatialSplit,
        batch: f64,
        delta: f64,
    ) -> f64 {
        let mut t = 0.0;
        for l in &model.layers {
            let factors = split.factors(l.spatial_dims());
            let halo = l.halo_size(&factors) as f64;
            if halo == 0.0 {
                continue;
            }
            let halo_dy = halo * (l.output_size() as f64 / l.input_size().max(1) as f64);
            let bytes = batch * (halo + halo_dy) * delta;
            // Forward and backward halo exchanges.
            t += 2.0 * schedule_time(topo, &halo_exchange(ranks, bytes));
        }
        t
    }

    /// Activation transfer time between consecutive pipeline `groups` fed
    /// `segments` micro-batch segments.
    fn pipeline_transfers(
        &self,
        model: &Model,
        config: &TrainingConfig,
        groups: &[Range<usize>],
        segments: usize,
    ) -> Vec<f64> {
        let p = groups.len();
        let seg_samples = config.batch_size as f64 / segments.max(1) as f64;
        let topo = self.topology(p.max(2));
        groups
            .iter()
            .take(p.saturating_sub(1))
            .map(|r| {
                let act = model.layers[r.end - 1].output_size() as f64;
                topo.p2p_time(
                    0,
                    topo.gpus_per_node.min(topo.total_pes() - 1).max(1),
                    seg_samples * act * config.bytes_per_item,
                )
            })
            .collect()
    }

    /// Simulates one pipelined iteration with a dependency-driven schedule:
    /// stage `i` can process micro-batch segment `s` only after stage `i−1`
    /// finished segment `s` (plus the activation transfer) and after it
    /// finished segment `s−1` itself. Returns `(compute-critical-path,
    /// p2p-transfer time on the critical path)`.
    fn pipeline_iteration(
        &self,
        model: &Model,
        config: &TrainingConfig,
        network: &NetworkBase,
        segments: usize,
        sampler: &mut OverheadSampler,
    ) -> (f64, f64) {
        let groups = &network.pipeline_stages;
        let transfer = &network.pipeline_transfers;
        let p = groups.len();
        let s = segments.max(1);
        let seg_samples = config.batch_size as f64 / s as f64;

        // Per-stage per-segment compute times (forward + backward), with noise.
        let stage_time: Vec<f64> = groups
            .iter()
            .map(|r| {
                let per_sample: f64 = model.layers[r.clone()]
                    .iter()
                    .map(|l| self.device.forward_time(l) + self.device.backward_time(l))
                    .sum();
                per_sample * seg_samples * sampler.compute_multiplier()
            })
            .collect();

        // Dependency recurrence over the (stage, segment) grid.
        let mut finish = vec![vec![0.0f64; s]; p];
        let mut p2p_on_path = 0.0f64;
        for seg in 0..s {
            for stage in 0..p {
                let from_prev_stage =
                    if stage > 0 { finish[stage - 1][seg] + transfer[stage - 1] } else { 0.0 };
                let from_prev_seg = if seg > 0 { finish[stage][seg - 1] } else { 0.0 };
                let start = from_prev_stage.max(from_prev_seg);
                if stage > 0 && from_prev_stage >= from_prev_seg {
                    p2p_on_path += transfer[stage - 1];
                }
                finish[stage][seg] = start + stage_time[stage];
            }
        }
        let total = finish[p - 1][s - 1];
        (total - p2p_on_path.min(total), p2p_on_path.min(total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradl_core::compute::DeviceProfile;
    use paradl_core::cost::estimate;
    use paradl_core::oracle::projection_accuracy;
    use paradl_models::SyntheticCnn;

    fn setup() -> (Model, DeviceProfile, ClusterSpec, TrainingConfig) {
        (
            SyntheticCnn::default().build(),
            DeviceProfile::v100(),
            ClusterSpec::paper_system(),
            TrainingConfig::small(8192, 64),
        )
    }

    #[test]
    fn serial_simulation_matches_oracle_with_ideal_overheads() {
        let (m, d, c, cfg) = setup();
        let sim = Simulator::new(&d, &c).with_overheads(OverheadModel::ideal()).with_samples(1);
        let measured = sim.simulate(&m, &cfg, Strategy::Serial);
        let projected = estimate(&m, &d, &c, &cfg, Strategy::Serial);
        let acc = projection_accuracy(projected.per_epoch.total(), measured.per_epoch.total());
        assert!(acc > 0.99, "accuracy = {acc}");
    }

    #[test]
    fn data_parallel_simulation_is_close_to_oracle() {
        let (m, d, c, cfg) = setup();
        let sim = Simulator::new(&d, &c).with_overheads(OverheadModel::ideal()).with_samples(1);
        // The oracle prices every ring hop at the bottleneck link, while the
        // simulated ring keeps 3 of 4 hops on NVLink, so accuracy dips as the
        // communication share grows — the same qualitative gap the paper
        // reports (accuracy between ~74% and ~98% across configurations).
        for p in [4usize, 16, 64] {
            let measured = sim.simulate(&m, &cfg, Strategy::Data { p });
            let projected = estimate(&m, &d, &c, &cfg, Strategy::Data { p });
            let acc = projection_accuracy(projected.per_epoch.total(), measured.per_epoch.total());
            assert!(acc > 0.7, "p={p} accuracy={acc}");
        }
    }

    #[test]
    fn overheads_make_measured_slower_than_ideal() {
        let (m, d, c, cfg) = setup();
        let ideal = Simulator::new(&d, &c)
            .with_overheads(OverheadModel::ideal())
            .with_samples(3)
            .simulate(&m, &cfg, Strategy::Filter { p: 8 });
        let real = Simulator::new(&d, &c)
            .with_overheads(OverheadModel::chainermnx_quiet())
            .with_samples(3)
            .simulate(&m, &cfg, Strategy::Filter { p: 8 });
        assert!(real.per_epoch.total() > ideal.per_epoch.total());
    }

    #[test]
    fn filter_parallelism_has_layerwise_comm_but_no_gradient_exchange() {
        let (m, d, c, cfg) = setup();
        let sim = Simulator::new(&d, &c).with_samples(2);
        let r = sim.simulate(&m, &cfg, Strategy::Filter { p: 8 });
        assert!(r.per_iteration.fb_collective > 0.0);
        assert_eq!(r.per_iteration.gradient_exchange, 0.0);
    }

    #[test]
    fn spatial_has_halo_exchange() {
        let (m, d, c, cfg) = setup();
        let sim = Simulator::new(&d, &c).with_samples(2);
        let r = sim.simulate(&m, &cfg, Strategy::Spatial { split: SpatialSplit::width_only(4) });
        assert!(r.per_iteration.halo_exchange > 0.0);
        assert!(r.per_iteration.gradient_exchange > 0.0);
    }

    #[test]
    fn pipeline_with_more_segments_is_faster() {
        let (m, d, c, cfg) = setup();
        let sim = Simulator::new(&d, &c).with_overheads(OverheadModel::ideal()).with_samples(1);
        let few = sim.simulate(&m, &cfg, Strategy::Pipeline { p: 4, segments: 1 });
        let many = sim.simulate(&m, &cfg, Strategy::Pipeline { p: 4, segments: 16 });
        assert!(many.per_epoch.total() < few.per_epoch.total());
    }

    #[test]
    fn hybrid_df_exhibits_segmented_allreduce_contention() {
        let (m, d, c, cfg) = setup();
        let sim = Simulator::new(&d, &c).with_overheads(OverheadModel::ideal()).with_samples(1);
        let df = sim.simulate(&m, &cfg, Strategy::DataFilter { p1: 16, p2: 4 });
        assert!(df.per_iteration.gradient_exchange > 0.0);
        assert!(df.per_iteration.fb_collective > 0.0);
    }

    #[test]
    fn per_epoch_is_per_iteration_times_iterations() {
        let (m, d, c, cfg) = setup();
        let sim = Simulator::new(&d, &c).with_samples(2);
        let r = sim.simulate(&m, &cfg, Strategy::Data { p: 8 });
        let expected = r.per_iteration.total() * cfg.iterations_per_epoch() as f64;
        assert!((r.per_epoch.total() - expected).abs() < 1e-9 * expected);
    }
}
