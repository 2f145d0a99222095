//! Cluster / system specification.
//!
//! The paper's system is a multi-petaflop supercomputer with 4 V100 GPUs per
//! node (NVLink intra-node, PCIe to the host) and a 3-level fat-tree with two
//! EDR InfiniBand rails per node, full bisection intra-rack and 1:3
//! over-subscription inter-rack (§5.1). The oracle needs, for a communicator
//! spanning `p` PEs, the effective Hockney parameters of the slowest level
//! the communicator crosses — that is what [`ClusterSpec::comm_model`]
//! returns. The event-level topology (per-link sharing) lives in
//! `paradl-net`; this module is the analytical view.

use crate::comm::{CommModel, LinkParams};
use crate::compute::DeviceProfile;

/// Largest exponent of the power-of-two communicator tables (`2^24` = 16 Mi
/// PEs, far beyond any machine the oracle models). The collective tables of
/// [`crate::engine::CostEngine`] cover communicator sizes up to
/// `2^MAX_LOG2_PES`; larger or non-power-of-two sizes are priced on the fly
/// by the same closed-form Hockney formulas, which are themselves `O(1)`.
pub const MAX_LOG2_PES: usize = 24;

/// Hierarchy levels of the interconnect, ordered from fastest/closest to
/// slowest/farthest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommLevel {
    /// Between GPUs of the same node (NVLink / PCIe switch).
    IntraNode,
    /// Between nodes of the same rack (first-level switch).
    IntraRack,
    /// Between racks (core switches, possibly over-subscribed).
    InterRack,
}

/// Specification of the training system: device profile plus interconnect
/// hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Per-GPU compute profile.
    pub device: DeviceProfile,
    /// GPUs per compute node.
    pub gpus_per_node: usize,
    /// Compute nodes per rack.
    pub nodes_per_rack: usize,
    /// Number of racks (upper bound on the machine size).
    pub racks: usize,
    /// Intra-node link (NVLink).
    pub intra_node: LinkParams,
    /// Intra-rack link (InfiniBand, full bisection).
    pub intra_rack: LinkParams,
    /// Inter-rack link (InfiniBand, possibly over-subscribed).
    pub inter_rack: LinkParams,
}

impl ClusterSpec {
    /// The paper's evaluation system: 4 V100 per node, 17 nodes per rack,
    /// NVLink intra-node, EDR InfiniBand with full bisection intra-rack and
    /// 1:3 over-subscription inter-rack. Enough racks for 1024 GPUs.
    pub fn paper_system() -> Self {
        ClusterSpec {
            device: DeviceProfile::v100(),
            gpus_per_node: 4,
            nodes_per_rack: 17,
            racks: 16,
            intra_node: LinkParams::nvlink(),
            intra_rack: LinkParams::infiniband_edr(),
            inter_rack: LinkParams::infiniband_oversubscribed(),
        }
    }

    /// A small single-node workstation (useful for examples and tests).
    pub fn workstation(gpus: usize) -> Self {
        ClusterSpec {
            device: DeviceProfile::v100(),
            gpus_per_node: gpus,
            nodes_per_rack: 1,
            racks: 1,
            intra_node: LinkParams::nvlink(),
            intra_rack: LinkParams::pcie_gen3(),
            inter_rack: LinkParams::pcie_gen3(),
        }
    }

    /// Total GPUs available in the machine (saturating, so a hostile spec
    /// clamps instead of overflowing; `Query::vet` rejects such specs with a
    /// typed error before they reach the engine).
    pub fn total_gpus(&self) -> usize {
        self.gpus_per_node.saturating_mul(self.nodes_per_rack).saturating_mul(self.racks)
    }

    /// The slowest hierarchy level a communicator of `p` consecutive PEs must
    /// cross (PEs are ranked node-major, i.e. ranks 0..gpus_per_node share a
    /// node).
    pub fn level_for(&self, p: usize) -> CommLevel {
        if p <= self.gpus_per_node {
            CommLevel::IntraNode
        } else if p <= self.gpus_per_node * self.nodes_per_rack {
            CommLevel::IntraRack
        } else {
            CommLevel::InterRack
        }
    }

    /// Link parameters of a given hierarchy level.
    pub fn link(&self, level: CommLevel) -> LinkParams {
        match level {
            CommLevel::IntraNode => self.intra_node,
            CommLevel::IntraRack => self.intra_rack,
            CommLevel::InterRack => self.inter_rack,
        }
    }

    /// Analytical communication model for a communicator of `p` PEs: Hockney
    /// parameters of the slowest level crossed (the ring's bottleneck link),
    /// as the paper does when interpolating α/β per PE-count (§4.4).
    pub fn comm_model(&self, p: usize) -> CommModel {
        CommModel::new(self.link(self.level_for(p)))
    }

    /// Communication model for a communicator of `p` PEs that are *strided*
    /// across groups (e.g. the inter-group data-parallel Allreduce of hybrid
    /// strategies, where each group occupies one node): always crosses at
    /// least the node boundary.
    pub fn comm_model_inter_group(&self, groups: usize, group_size: usize) -> CommModel {
        let span = groups * group_size;
        let level = if span <= self.gpus_per_node {
            CommLevel::IntraNode
        } else if span <= self.gpus_per_node * self.nodes_per_rack {
            CommLevel::IntraRack
        } else {
            CommLevel::InterRack
        };
        CommModel::new(self.link(level))
    }

    /// Contention coefficient φ of the segmented Allreduce used by the
    /// Data+Filter hybrid: one Allreduce per GPU-of-a-node runs concurrently
    /// over the same inter-node link, so φ equals the number of segments
    /// sharing the link (the paper uses 2× for its two-rail nodes; with
    /// `gpus_per_node` segments over `rails = 2` rails this is
    /// `gpus_per_node / rails`).
    pub fn segmented_allreduce_contention(&self, group_size: usize) -> f64 {
        let rails = 2.0;
        (group_size.min(self.gpus_per_node) as f64 / rails).max(1.0)
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::paper_system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_holds_1024_gpus() {
        let c = ClusterSpec::paper_system();
        assert!(c.total_gpus() >= 1024);
    }

    #[test]
    fn level_selection_follows_hierarchy() {
        let c = ClusterSpec::paper_system();
        assert_eq!(c.level_for(2), CommLevel::IntraNode);
        assert_eq!(c.level_for(4), CommLevel::IntraNode);
        assert_eq!(c.level_for(8), CommLevel::IntraRack);
        assert_eq!(c.level_for(64), CommLevel::IntraRack);
        assert_eq!(c.level_for(512), CommLevel::InterRack);
    }

    #[test]
    fn larger_communicators_use_slower_links() {
        let c = ClusterSpec::paper_system();
        let intra = c.comm_model(4);
        let rack = c.comm_model(64);
        let inter = c.comm_model(1024);
        assert!(intra.link.beta <= rack.link.beta);
        assert!(rack.link.beta <= inter.link.beta);
    }

    #[test]
    fn inter_group_model_crosses_node_boundary() {
        let c = ClusterSpec::paper_system();
        // 16 groups of 4 GPUs each => spans 64 GPUs => intra-rack at least.
        let m = c.comm_model_inter_group(16, 4);
        assert_eq!(m.link, c.intra_rack);
        let m2 = c.comm_model_inter_group(256, 4);
        assert_eq!(m2.link, c.inter_rack);
    }

    #[test]
    fn workstation_is_single_node() {
        let c = ClusterSpec::workstation(8);
        assert_eq!(c.total_gpus(), 8);
        assert_eq!(c.level_for(8), CommLevel::IntraNode);
    }
}
