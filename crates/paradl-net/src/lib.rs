//! # paradl-net
//!
//! Network substrate for the ParaDL simulator: a link-level fat-tree
//! [`topology::FatTree`] matching the paper's evaluation system, step-by-step
//! [`collectives`] schedules (ring Allreduce/Allgather/Reduce-Scatter, tree
//! broadcast, hierarchical and segmented Allreduce, halo exchange), and the
//! dynamic [`contention`] accounting that slows concurrent flows sharing a
//! link — the mechanism behind both the self-contention of hybrid strategies
//! and external network congestion.
//!
//! Schedules are run-length encoded: a [`Schedule`] is a list of [`Run`]s,
//! each one step's transfers plus a repeat count, and every ring phase is a
//! single run. [`schedule_time`] prices each run once, counting per-link
//! flows in a dense table indexed by [`FatTree::link_index`] over inline
//! (non-allocating) routes, then adds the run's time `repeat` times in
//! sequence. Pricing a ring Allreduce over `p` ranks therefore costs two
//! step evaluations of `p` transfers rather than `2(p−1)` of them, and the
//! total has the same bits as a step-by-step sum.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod contention;
#[cfg(test)]
mod proptests;
pub mod topology;

pub use collectives::{
    flat_reduce_to_root, halo_exchange, hierarchical_allreduce, merge_concurrent, ring_allgather,
    ring_allreduce, ring_reduce_scatter, segmented_allreduce, tree_broadcast, Run, Schedule,
    Transfer,
};
pub use contention::{max_contention, schedule_time, step_time};
pub use topology::{Direction, FatTree, LinkId, Route};

#[cfg(test)]
mod tests {
    use super::*;
    use paradl_core::comm::{CollectiveAlgorithm, CommModel};

    /// The link-level schedule time and the analytical Hockney formula must
    /// agree (same α, β, ring algorithm, no contention) — this cross-checks
    /// the two halves of the reproduction against each other.
    #[test]
    fn simulated_ring_allreduce_matches_analytical_model() {
        let topo = FatTree::single_node(8);
        let ranks: Vec<usize> = (0..8).collect();
        let bytes = 64.0 * 1024.0 * 1024.0;
        let simulated = schedule_time(&topo, &ring_allreduce(&ranks, bytes));
        let analytic = CommModel::new(topo.intra_node)
            .with_algorithm(CollectiveAlgorithm::Ring)
            .allreduce(8, bytes);
        let rel = (simulated - analytic).abs() / analytic;
        assert!(rel < 0.05, "simulated={simulated} analytic={analytic}");
    }

    #[test]
    fn allgather_matches_analytical_model_too() {
        let topo = FatTree::single_node(4);
        let ranks: Vec<usize> = (0..4).collect();
        let bytes = 16.0 * 1024.0 * 1024.0;
        let simulated = schedule_time(&topo, &ring_allgather(&ranks, bytes));
        let analytic = CommModel::new(topo.intra_node)
            .with_algorithm(CollectiveAlgorithm::Ring)
            .allgather(4, bytes);
        let rel = (simulated - analytic).abs() / analytic;
        assert!(rel < 0.05, "simulated={simulated} analytic={analytic}");
    }
}
