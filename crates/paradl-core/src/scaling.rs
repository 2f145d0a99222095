//! Scaling sweeps: evaluate a strategy family over a range of PE counts under
//! weak or strong scaling, the way the paper's Figure 3 / Figure 5 sweeps are
//! organized.

use crate::compute::ComputeModel;
use crate::cost::CostEstimate;
use crate::oracle::{Constraints, Oracle};
use crate::strategy::{Strategy, StrategyKind};

/// How the global mini-batch evolves with the PE count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingMode {
    /// Weak scaling: `B = samples_per_pe × p` (the paper's default, §4.2).
    Weak {
        /// Samples assigned to each PE.
        samples_per_pe: usize,
    },
    /// Strong scaling: `B` fixed regardless of `p` (used for filter/channel
    /// parallelism in Figure 3).
    Strong {
        /// The fixed global batch size.
        batch_size: usize,
    },
}

impl ScalingMode {
    /// The global batch size at `p` PEs.
    pub fn batch_at(&self, p: usize) -> usize {
        match *self {
            ScalingMode::Weak { samples_per_pe } => samples_per_pe * p,
            ScalingMode::Strong { batch_size } => batch_size,
        }
    }
}

/// One point of a scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Number of PEs.
    pub pes: usize,
    /// Global batch size used at this point.
    pub batch_size: usize,
    /// The concrete strategy evaluated.
    pub strategy: Strategy,
    /// The oracle's cost estimate.
    pub cost: CostEstimate,
    /// Whether the point respects memory and scaling limits.
    pub feasible: bool,
}

/// Sweeps a strategy family over the given PE counts. One engine from
/// [`Oracle::engine`] is rebatched to each point's batch, and every point is
/// priced and gated like a survey entry.
///
/// # Panics
///
/// Panics if the oracle's engine refuses to build (see [`Oracle::engine`]).
pub fn sweep<C: ComputeModel + ?Sized>(
    oracle: &Oracle<'_, C>,
    kind: StrategyKind,
    pe_counts: &[usize],
    mode: ScalingMode,
    constraints: &Constraints,
) -> Vec<SweepPoint> {
    let mut engine = oracle.engine();
    let mut points = Vec::with_capacity(pe_counts.len());
    for &p in pe_counts {
        let batch = mode.batch_at(p).max(1);
        engine.rebatch(batch);
        let strategy = oracle.instantiate(kind, p, constraints.pipeline_segments);
        let proj = oracle.project_engine(&engine, strategy, constraints, None);
        let (cost, feasible) = (proj.cost, proj.feasible());
        points.push(SweepPoint { pes: p, batch_size: batch, strategy, cost, feasible });
    }
    points
}

/// Powers of two from `lo` to `hi` inclusive.
pub fn powers_of_two(lo: usize, hi: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut p = lo.max(1);
    while p <= hi {
        v.push(p);
        // Checked: `hi` near `usize::MAX` would otherwise overflow the doubling.
        match p.checked_mul(2) {
            Some(next) => p = next,
            None => break,
        }
    }
    v
}

/// Speedup of each sweep point relative to the first point of a baseline
/// sweep (used by Figure 5: spatial+data speedup over pure spatial).
pub fn speedup_over(points: &[SweepPoint], baseline: &SweepPoint) -> Vec<(usize, f64)> {
    let base = baseline.cost.epoch_time();
    points.iter().map(|pt| (pt.pes, base / pt.cost.epoch_time().max(f64::MIN_POSITIVE))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::compute::DeviceProfile;
    use crate::config::TrainingConfig;
    use crate::layer::Layer;
    use crate::model::Model;

    fn setup() -> (Model, DeviceProfile, ClusterSpec, TrainingConfig) {
        let model = Model::new(
            "m",
            3,
            vec![64, 64],
            vec![
                Layer::conv2d("c1", 3, 64, (64, 64), 3, 1, 1),
                Layer::pool2d("p1", 64, (64, 64), 2, 2),
                Layer::conv2d("c2", 64, 128, (32, 32), 3, 1, 1),
                Layer::global_pool("g", 128, &[32, 32]),
                Layer::fully_connected("fc", 128, 10),
            ],
        );
        (
            model,
            DeviceProfile::v100(),
            ClusterSpec::paper_system(),
            TrainingConfig::small(65536, 64),
        )
    }

    #[test]
    fn powers_of_two_range() {
        assert_eq!(powers_of_two(16, 128), vec![16, 32, 64, 128]);
        assert_eq!(powers_of_two(1, 1), vec![1]);
        assert!(powers_of_two(8, 4).is_empty());
    }

    #[test]
    fn weak_scaling_keeps_per_pe_compute_constant() {
        let (m, d, c, cfg) = setup();
        let oracle = Oracle::new(&m, &d, &c, cfg);
        let pts = sweep(
            &oracle,
            StrategyKind::Data,
            &[16, 32, 64],
            ScalingMode::Weak { samples_per_pe: 32 },
            &Constraints::default(),
        );
        assert_eq!(pts.len(), 3);
        // Under weak scaling per-iteration forward/backward time stays flat.
        let t16 = pts[0].cost.per_iteration().forward_backward;
        let t64 = pts[2].cost.per_iteration().forward_backward;
        assert!((t16 - t64).abs() / t16 < 1e-9);
        // Communication grows with p.
        assert!(
            pts[2].cost.per_iteration().gradient_exchange
                > pts[0].cost.per_iteration().gradient_exchange
        );
    }

    #[test]
    fn strong_scaling_shrinks_per_pe_compute() {
        let (m, d, c, cfg) = setup();
        let oracle = Oracle::new(&m, &d, &c, cfg);
        let pts = sweep(
            &oracle,
            StrategyKind::Filter,
            &[4, 8, 16],
            ScalingMode::Strong { batch_size: 32 },
            &Constraints::default(),
        );
        assert!(pts[2].cost.per_epoch.forward_backward < pts[0].cost.per_epoch.forward_backward);
    }

    #[test]
    fn infeasible_points_are_flagged() {
        let (m, d, c, cfg) = setup();
        let oracle = Oracle::new(&m, &d, &c, cfg);
        // Filter parallelism is limited by min_l F_l = 10 (the fc layer).
        let pts = sweep(
            &oracle,
            StrategyKind::Filter,
            &[8, 16],
            ScalingMode::Strong { batch_size: 32 },
            &Constraints::default(),
        );
        assert!(pts[0].feasible);
        assert!(!pts[1].feasible);
    }

    #[test]
    fn speedup_is_relative_to_baseline() {
        let (m, d, c, cfg) = setup();
        let oracle = Oracle::new(&m, &d, &c, cfg);
        let pts = sweep(
            &oracle,
            StrategyKind::Data,
            &[16, 32],
            ScalingMode::Strong { batch_size: 512 },
            &Constraints::default(),
        );
        let sp = speedup_over(&pts, &pts[0]);
        assert!((sp[0].1 - 1.0).abs() < 1e-12);
        assert!(sp[1].1 > 1.0);
    }
}
