//! Parallelization strategies (paper Section 3) and their scaling limits
//! (last column of Table 3).

use crate::model::Model;
use std::fmt;

/// How the spatial dimensions are factored over PEs in spatial parallelism:
/// `p = p_w × p_h × p_d` (depth only for 3-D inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpatialSplit {
    /// Split factor along the width dimension.
    pub pw: usize,
    /// Split factor along the height dimension.
    pub ph: usize,
    /// Split factor along the depth dimension (1 for 2-D inputs).
    pub pd: usize,
}

impl SpatialSplit {
    /// A split over `p` PEs along a single (width) dimension.
    pub fn width_only(p: usize) -> Self {
        SpatialSplit { pw: p, ph: 1, pd: 1 }
    }

    /// Factors `p` as evenly as possible into two dimensions (width × height).
    pub fn balanced_2d(p: usize) -> Self {
        let (a, b) = closest_factor_pair(p);
        SpatialSplit { pw: a, ph: b, pd: 1 }
    }

    /// Factors `p` as evenly as possible into three dimensions.
    pub fn balanced_3d(p: usize) -> Self {
        // Find the factorization (a, b, c) of p minimizing max/min ratio.
        let mut best = (p, 1, 1);
        let mut best_spread = p;
        for a in 1..=p {
            if !p.is_multiple_of(a) {
                continue;
            }
            let rest = p / a;
            for b in 1..=rest {
                if !rest.is_multiple_of(b) {
                    continue;
                }
                let c = rest / b;
                let mx = a.max(b).max(c);
                let mn = a.min(b).min(c);
                if mx - mn < best_spread {
                    best_spread = mx - mn;
                    best = (a, b, c);
                }
            }
        }
        SpatialSplit { pw: best.0, ph: best.1, pd: best.2 }
    }

    /// Total number of PEs `p = p_w · p_h · p_d`.
    pub fn total(&self) -> usize {
        self.pw * self.ph * self.pd
    }

    /// Per-dimension split factors as a slice-compatible vector
    /// `[pw, ph, pd]` truncated to the model's spatial rank.
    pub fn factors(&self, rank: usize) -> Vec<usize> {
        let all = [self.pw, self.ph, self.pd];
        all[..rank.min(3)].to_vec()
    }
}

fn closest_factor_pair(p: usize) -> (usize, usize) {
    let mut best = (1, p);
    let mut a = 1;
    while a * a <= p {
        if p.is_multiple_of(a) {
            best = (a, p / a);
        }
        a += 1;
    }
    best
}

/// A parallelization strategy with its total PE count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Sequential baseline on a single PE.
    Serial,
    /// Data parallelism over `p` PEs (mini-batch split).
    Data {
        /// Number of PEs.
        p: usize,
    },
    /// Spatial (height/width/depth) parallelism.
    Spatial {
        /// Per-dimension split factors.
        split: SpatialSplit,
    },
    /// Filter (output-channel) parallelism over `p` PEs.
    Filter {
        /// Number of PEs.
        p: usize,
    },
    /// Channel (input-channel) parallelism over `p` PEs.
    Channel {
        /// Number of PEs.
        p: usize,
    },
    /// Layer (pipeline) parallelism over `p` composite layers with `s`
    /// micro-batch segments (GPipe-style).
    Pipeline {
        /// Number of pipeline stages (composite layers).
        p: usize,
        /// Number of micro-batch segments `S`.
        segments: usize,
    },
    /// Hybrid data (between `p1` groups) + filter (within groups of `p2`).
    DataFilter {
        /// Number of data-parallel groups.
        p1: usize,
        /// Filter-parallel PEs per group.
        p2: usize,
    },
    /// Hybrid data (between `p1` groups) + spatial (within groups of `p2`).
    DataSpatial {
        /// Number of data-parallel groups.
        p1: usize,
        /// Spatial split used within each group.
        split: SpatialSplit,
    },
}

impl Strategy {
    /// Total number of PEs `p` used by the strategy.
    pub fn total_pes(&self) -> usize {
        match *self {
            Strategy::Serial => 1,
            Strategy::Data { p } | Strategy::Filter { p } | Strategy::Channel { p } => p,
            Strategy::Spatial { split } => split.total(),
            Strategy::Pipeline { p, .. } => p,
            Strategy::DataFilter { p1, p2 } => p1 * p2,
            Strategy::DataSpatial { p1, split } => p1 * split.total(),
        }
    }

    /// Maximum PE count the strategy admits for a given model and global
    /// mini-batch size (paper Table 3, last column).
    pub fn max_pes(model: &Model, batch: usize, kind: StrategyKind) -> usize {
        match kind {
            StrategyKind::Serial => 1,
            StrategyKind::Data => batch,
            StrategyKind::Spatial => model.min_spatial_size(),
            StrategyKind::Filter => model.min_filters(),
            StrategyKind::Channel => model.min_channels_after_first(),
            StrategyKind::Pipeline => model.num_layers(),
            // Saturating: a hostile batch must clamp, not overflow — the result
            // is only ever min'ed against budgets (and must stay equal to
            // `ModelLimits::max_pes`, which saturates the same way).
            StrategyKind::DataFilter => batch.saturating_mul(model.min_filters()),
            StrategyKind::DataSpatial => batch.saturating_mul(model.min_spatial_size()),
        }
    }

    /// The kind of this strategy (without the PE counts).
    pub fn kind(&self) -> StrategyKind {
        match self {
            Strategy::Serial => StrategyKind::Serial,
            Strategy::Data { .. } => StrategyKind::Data,
            Strategy::Spatial { .. } => StrategyKind::Spatial,
            Strategy::Filter { .. } => StrategyKind::Filter,
            Strategy::Channel { .. } => StrategyKind::Channel,
            Strategy::Pipeline { .. } => StrategyKind::Pipeline,
            Strategy::DataFilter { .. } => StrategyKind::DataFilter,
            Strategy::DataSpatial { .. } => StrategyKind::DataSpatial,
        }
    }

    /// Validates the strategy against the scaling limits of `model` with the
    /// given global mini-batch size. Returns a description of the violated
    /// limit on failure.
    pub fn validate(&self, model: &Model, batch: usize) -> Result<(), String> {
        let p = self.total_pes();
        if p == 0 {
            return Err("strategy uses zero PEs".into());
        }
        match *self {
            Strategy::Serial => Ok(()),
            Strategy::Data { p } => {
                if p > batch {
                    Err(format!("data parallelism needs p ≤ B ({p} > {batch})"))
                } else {
                    Ok(())
                }
            }
            Strategy::Spatial { split } => {
                let lim = model.min_spatial_size();
                if split.total() > lim {
                    Err(format!(
                        "spatial parallelism needs p ≤ min(W·H) ({} > {lim})",
                        split.total()
                    ))
                } else {
                    Ok(())
                }
            }
            Strategy::Filter { p } => {
                let lim = model.min_filters();
                if p > lim {
                    Err(format!("filter parallelism needs p ≤ min F_l ({p} > {lim})"))
                } else {
                    Ok(())
                }
            }
            Strategy::Channel { p } => {
                let lim = model.min_channels_after_first();
                if p > lim {
                    Err(format!("channel parallelism needs p ≤ min C_l ({p} > {lim})"))
                } else {
                    Ok(())
                }
            }
            Strategy::Pipeline { p, segments } => {
                if p > model.num_layers() {
                    Err(format!("pipeline parallelism needs p ≤ G ({p} > {})", model.num_layers()))
                } else if segments == 0 {
                    Err("pipeline needs at least one segment".into())
                } else if segments > batch {
                    Err(format!(
                        "pipeline segments must not exceed the mini-batch (S={segments} > B={batch})"
                    ))
                } else {
                    Ok(())
                }
            }
            Strategy::DataFilter { p1, p2 } => {
                if p1 > batch {
                    return Err(format!("data groups must be ≤ B ({p1} > {batch})"));
                }
                let lim = model.min_filters();
                if p2 > lim {
                    return Err(format!("filter split must be ≤ min F_l ({p2} > {lim})"));
                }
                Ok(())
            }
            Strategy::DataSpatial { p1, split } => {
                if p1 > batch {
                    return Err(format!("data groups must be ≤ B ({p1} > {batch})"));
                }
                let lim = model.min_spatial_size();
                if split.total() > lim {
                    return Err(format!(
                        "spatial split must be ≤ min(W·H) ({} > {lim})",
                        split.total()
                    ));
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Strategy::Serial => write!(f, "serial"),
            Strategy::Data { p } => write!(f, "data(p={p})"),
            Strategy::Spatial { split } => {
                write!(f, "spatial(pw={},ph={},pd={})", split.pw, split.ph, split.pd)
            }
            Strategy::Filter { p } => write!(f, "filter(p={p})"),
            Strategy::Channel { p } => write!(f, "channel(p={p})"),
            Strategy::Pipeline { p, segments } => write!(f, "pipeline(p={p},S={segments})"),
            Strategy::DataFilter { p1, p2 } => write!(f, "data+filter(p1={p1},p2={p2})"),
            Strategy::DataSpatial { p1, split } => {
                write!(f, "data+spatial(p1={p1},pw={},ph={},pd={})", split.pw, split.ph, split.pd)
            }
        }
    }
}

/// Strategy family without parameters, used for enumerating sweeps and for
/// the `max_pes` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Single-PE sequential execution.
    Serial,
    /// Data parallelism.
    Data,
    /// Spatial parallelism.
    Spatial,
    /// Filter parallelism.
    Filter,
    /// Channel parallelism.
    Channel,
    /// Layer/pipeline parallelism.
    Pipeline,
    /// Hybrid data+filter.
    DataFilter,
    /// Hybrid data+spatial.
    DataSpatial,
}

impl StrategyKind {
    /// All the strategy families evaluated in the paper.
    pub const ALL: [StrategyKind; 8] = [
        StrategyKind::Serial,
        StrategyKind::Data,
        StrategyKind::Spatial,
        StrategyKind::Filter,
        StrategyKind::Channel,
        StrategyKind::Pipeline,
        StrategyKind::DataFilter,
        StrategyKind::DataSpatial,
    ];

    /// The six non-serial strategies from the evaluation (Figure 3 columns
    /// plus the CosmoFlow data+spatial case).
    pub const EVALUATED: [StrategyKind; 6] = [
        StrategyKind::Data,
        StrategyKind::Filter,
        StrategyKind::Channel,
        StrategyKind::Pipeline,
        StrategyKind::DataFilter,
        StrategyKind::DataSpatial,
    ];
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StrategyKind::Serial => "serial",
            StrategyKind::Data => "data",
            StrategyKind::Spatial => "spatial",
            StrategyKind::Filter => "filter",
            StrategyKind::Channel => "channel",
            StrategyKind::Pipeline => "pipeline",
            StrategyKind::DataFilter => "data+filter",
            StrategyKind::DataSpatial => "data+spatial",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    fn model() -> Model {
        Model::new(
            "m",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 16, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 16, (32, 32), 2, 2),
                Layer::conv2d("c2", 16, 32, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 32, &[16, 16]),
                Layer::fully_connected("fc", 32, 10),
            ],
        )
    }

    #[test]
    fn spatial_split_factorization() {
        assert_eq!(SpatialSplit::balanced_2d(16), SpatialSplit { pw: 4, ph: 4, pd: 1 });
        assert_eq!(SpatialSplit::balanced_2d(8).total(), 8);
        assert_eq!(SpatialSplit::balanced_3d(8), SpatialSplit { pw: 2, ph: 2, pd: 2 });
        assert_eq!(SpatialSplit::width_only(7).total(), 7);
        assert_eq!(SpatialSplit::balanced_3d(27).total(), 27);
    }

    #[test]
    fn total_pes_per_strategy() {
        assert_eq!(Strategy::Serial.total_pes(), 1);
        assert_eq!(Strategy::Data { p: 64 }.total_pes(), 64);
        assert_eq!(Strategy::DataFilter { p1: 16, p2: 4 }.total_pes(), 64);
        assert_eq!(
            Strategy::DataSpatial { p1: 8, split: SpatialSplit::balanced_2d(4) }.total_pes(),
            32
        );
    }

    #[test]
    fn validation_enforces_scaling_limits() {
        let m = model();
        // min filters = 10 (fc), so filter parallelism with 16 fails.
        assert!(Strategy::Filter { p: 16 }.validate(&m, 64).is_err());
        assert!(Strategy::Filter { p: 10 }.validate(&m, 64).is_ok());
        // channel limit after first layer: min(16, 32) = 16.
        assert!(Strategy::Channel { p: 16 }.validate(&m, 64).is_ok());
        assert!(Strategy::Channel { p: 17 }.validate(&m, 64).is_err());
        // data cannot exceed batch size.
        assert!(Strategy::Data { p: 128 }.validate(&m, 64).is_err());
        // pipeline limited by layer count.
        assert!(Strategy::Pipeline { p: 6, segments: 4 }.validate(&m, 64).is_err());
        assert!(Strategy::Pipeline { p: 4, segments: 4 }.validate(&m, 64).is_ok());
        // pipeline segments bounded by batch.
        assert!(Strategy::Pipeline { p: 2, segments: 128 }.validate(&m, 64).is_err());
    }

    #[test]
    fn max_pes_matches_table3() {
        let m = model();
        assert_eq!(Strategy::max_pes(&m, 64, StrategyKind::Data), 64);
        assert_eq!(Strategy::max_pes(&m, 64, StrategyKind::Filter), 10);
        assert_eq!(Strategy::max_pes(&m, 64, StrategyKind::Channel), 16);
        assert_eq!(Strategy::max_pes(&m, 64, StrategyKind::Pipeline), 5);
        assert_eq!(Strategy::max_pes(&m, 64, StrategyKind::Spatial), 16 * 16);
        assert_eq!(Strategy::max_pes(&m, 64, StrategyKind::DataFilter), 640);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Strategy::Data { p: 8 }.to_string(), "data(p=8)");
        assert_eq!(Strategy::DataFilter { p1: 4, p2: 2 }.to_string(), "data+filter(p1=4,p2=2)");
        assert_eq!(StrategyKind::DataSpatial.to_string(), "data+spatial");
    }
}
