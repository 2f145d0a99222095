//! # paradl-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (see `DESIGN.md` for the experiment index), plus Criterion
//! benchmarks of the oracle, the collective schedules, the simulator and the
//! tensor engine. Each `src/bin/*.rs` binary prints the rows/series of one
//! paper artifact; this library holds the pieces they share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use paradl_core::prelude::*;
use paradl_sim::{OverheadModel, Simulator};

/// One oracle-vs-measured comparison point, the unit of Figures 3 and 4.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonPoint {
    /// Number of GPUs.
    pub pes: usize,
    /// Global batch size used.
    pub batch: usize,
    /// Strategy evaluated.
    pub strategy: Strategy,
    /// Oracle projection, per iteration.
    pub projected: PhaseBreakdown,
    /// Simulated measurement, per iteration.
    pub measured: PhaseBreakdown,
}

impl ComparisonPoint {
    /// Projection accuracy of this point (the label above each Figure 3 bar).
    pub fn accuracy(&self) -> f64 {
        projection_accuracy(self.projected.total(), self.measured.total())
    }
}

/// Compares the oracle against the simulator for one configuration.
pub fn compare(
    model: &Model,
    device: &DeviceProfile,
    cluster: &ClusterSpec,
    config: &TrainingConfig,
    strategy: Strategy,
    overheads: OverheadModel,
    samples: usize,
) -> ComparisonPoint {
    let projected = estimate(model, device, cluster, config, strategy);
    let simulator = Simulator::new(device, cluster).with_overheads(overheads).with_samples(samples);
    let measured = simulator.simulate(model, config, strategy);
    ComparisonPoint {
        pes: strategy.total_pes(),
        batch: config.batch_size,
        strategy,
        projected: projected.per_iteration(),
        measured: measured.per_iteration,
    }
}

/// Prints the header of a Figure-3-style comparison table.
pub fn print_comparison_header() {
    println!(
        "{:<14} {:<24} {:>6} {:>6} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "model",
        "strategy",
        "GPUs",
        "batch",
        "proj comp",
        "proj comm",
        "meas comp",
        "meas comm",
        "accuracy"
    );
}

/// Prints one Figure-3-style comparison row.
pub fn print_comparison_row(model_name: &str, point: &ComparisonPoint) {
    println!(
        "{:<14} {:<24} {:>6} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>8.1}%",
        model_name,
        point.strategy.to_string(),
        point.pes,
        point.batch,
        point.projected.compute(),
        point.projected.communication(),
        point.measured.compute(),
        point.measured.communication(),
        point.accuracy() * 100.0
    );
}

/// The per-strategy GPU sweeps used in Figure 3: data and the hybrids scale
/// 16→1024, filter/channel 4→64, pipeline up to 4.
pub fn figure3_pe_counts(kind: StrategyKind) -> Vec<usize> {
    match kind {
        StrategyKind::Data | StrategyKind::DataFilter | StrategyKind::DataSpatial => {
            vec![16, 64, 256, 1024]
        }
        StrategyKind::Filter | StrategyKind::Channel => vec![4, 16, 64],
        StrategyKind::Pipeline => vec![2, 4],
        StrategyKind::Spatial => vec![4, 16, 64],
        StrategyKind::Serial => vec![1],
    }
}

/// Samples per GPU used for weak scaling in the Figure 3 sweeps (the paper's
/// "b" label: the per-GPU batch tuned for device occupancy).
pub fn samples_per_gpu(model_name: &str) -> usize {
    if model_name.contains("VGG") {
        16
    } else if model_name.contains("CosmoFlow") {
        1
    } else {
        32
    }
}

/// The shared cluster axis of the grid-scale summaries (`bench_grid_summary`
/// and `bench_sim_summary`): the paper's evaluation system plus interconnect
/// / node-density variants of it, in the spirit of SPEChpc-style studies
/// sweeping one workload across interconnects and node counts. All three
/// carry the same V100 device profile, so a `GridSweep` shares one prep per
/// (model, batch) across the whole axis — and keeping the axis in one place
/// keeps `BENCH_grid.json` and `BENCH_sim.json` comparable.
pub fn cluster_axis() -> Vec<ClusterSpec> {
    let paper = ClusterSpec::paper_system();
    let fat = ClusterSpec {
        gpus_per_node: 8,
        intra_rack: LinkParams::from_latency_bandwidth(10.0, 25.0),
        inter_rack: LinkParams::from_latency_bandwidth(15.0, 25.0 / 2.0),
        ..ClusterSpec::paper_system()
    };
    let oversubscribed = ClusterSpec {
        inter_rack: LinkParams::from_latency_bandwidth(25.0, 12.5 / 6.0),
        ..ClusterSpec::paper_system()
    };
    vec![paper, fat, oversubscribed]
}

/// The naive sweep the grid benchmarks set against [`GridSweep::run`]: one
/// [`Oracle::search`] per cell on a fresh oracle, so every cell pays its
/// own engine build and candidate enumeration.
pub fn per_query_sweep(grid: &QueryGrid) -> GridReport {
    let cells = grid
        .queries()
        .into_iter()
        .map(|query| {
            let gm = &grid.models()[query.model];
            let cluster = &grid.clusters()[query.cluster];
            let oracle =
                Oracle::new(&gm.model, &cluster.device, cluster, gm.config_at(query.batch));
            GridCell { query, report: oracle.search(grid.constraints()) }
        })
        .collect();
    GridReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradl_models::SyntheticCnn;

    #[test]
    fn comparison_point_accuracy_is_bounded() {
        let model = SyntheticCnn::tiny().build();
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let config = TrainingConfig::small(4096, 64);
        let point = compare(
            &model,
            &device,
            &cluster,
            &config,
            Strategy::Data { p: 16 },
            OverheadModel::ideal(),
            1,
        );
        let acc = point.accuracy();
        assert!((0.0..=1.0).contains(&acc));
        assert!(acc > 0.5);
    }

    #[test]
    fn figure3_sweeps_match_the_paper_ranges() {
        assert_eq!(figure3_pe_counts(StrategyKind::Data).last(), Some(&1024));
        assert_eq!(figure3_pe_counts(StrategyKind::Filter).last(), Some(&64));
        assert!(figure3_pe_counts(StrategyKind::Pipeline).iter().all(|&p| p <= 4));
    }

    #[test]
    fn samples_per_gpu_depend_on_model() {
        assert_eq!(samples_per_gpu("VGG16"), 16);
        assert_eq!(samples_per_gpu("ResNet-50"), 32);
        assert_eq!(samples_per_gpu("CosmoFlow-512"), 1);
    }
}
