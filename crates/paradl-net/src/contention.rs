//! Link-contention accounting (paper §4.3, "Contention modeling").
//!
//! Every transfer is routed over the topology; when several concurrent flows
//! share a link, each receives `1/φ` of the link bandwidth, where `φ` is the
//! number of flows on that link — a dynamic contention graph. The execution
//! time of one bulk-synchronous step is the maximum over its transfers of
//! `α_path + bytes · β_bottleneck · φ_bottleneck`.

use crate::collectives::{Schedule, Transfer};
use crate::topology::FatTree;

/// Per-link flow counts of one step, in a dense table indexed by
/// [`FatTree::link_index`]. One table serves every step of a schedule:
/// [`LinkLoads::clear`] zeroes only the links the step touched.
struct LinkLoads<'t> {
    topology: &'t FatTree,
    flows: Vec<usize>,
}

impl<'t> LinkLoads<'t> {
    fn new(topology: &'t FatTree) -> Self {
        LinkLoads { topology, flows: vec![0; topology.num_links()] }
    }

    /// Adds one flow per transfer to every link on its route.
    fn count(&mut self, transfers: &[Transfer]) {
        for t in transfers {
            for &link in self.topology.route(t.src, t.dst).iter() {
                self.flows[self.topology.link_index(link)] += 1;
            }
        }
    }

    /// Resets the links `transfers` touched back to zero flows.
    fn clear(&mut self, transfers: &[Transfer]) {
        for t in transfers {
            for &link in self.topology.route(t.src, t.dst).iter() {
                self.flows[self.topology.link_index(link)] = 0;
            }
        }
    }

    /// Prices one step from a cleared table and clears it again.
    fn price(&mut self, transfers: &[Transfer]) -> f64 {
        self.count(transfers);
        let topology = self.topology;
        let time = transfers
            .iter()
            .map(|t| {
                if t.src == t.dst {
                    return 0.0;
                }
                let route = topology.route(t.src, t.dst);
                let alpha: f64 =
                    route.iter().map(|&l| topology.link_params(l).alpha).sum::<f64>() / 2.0;
                // Effective inverse bandwidth: bottleneck of β·φ over the path.
                let beta_eff = route
                    .iter()
                    .map(|&l| {
                        let phi = self.flows[topology.link_index(l)] as f64;
                        topology.link_params(l).beta * phi
                    })
                    .fold(0.0f64, f64::max);
                alpha + t.bytes * beta_eff
            })
            .fold(0.0f64, f64::max);
        self.clear(transfers);
        time
    }
}

/// Time of one bulk-synchronous step: each transfer is slowed down by the
/// most contended link on its path, and the step finishes when the slowest
/// transfer does.
pub fn step_time(topology: &FatTree, transfers: &[Transfer]) -> f64 {
    LinkLoads::new(topology).price(transfers)
}

/// Time of a full collective schedule: the sum of its step times (steps are
/// bulk-synchronous). Each run of identical steps is priced once and its
/// time added `repeat` times in sequence, so the result has the bits of a
/// step-by-step sum at `O(runs × p)` routing cost.
pub fn schedule_time(topology: &FatTree, schedule: &Schedule) -> f64 {
    let mut loads = LinkLoads::new(topology);
    schedule
        .runs
        .iter()
        .flat_map(|run| std::iter::repeat_n(loads.price(&run.transfers), run.repeat))
        .sum()
}

/// Maximum contention factor φ observed on any link of a schedule — the
/// quantity the analytical model approximates with its constant coefficient.
pub fn max_contention(topology: &FatTree, schedule: &Schedule) -> usize {
    let mut loads = LinkLoads::new(topology);
    schedule
        .runs
        .iter()
        .filter(|run| run.repeat > 0)
        .map(|run| {
            loads.count(&run.transfers);
            let phi = loads.flows.iter().copied().max().unwrap_or(0);
            loads.clear(&run.transfers);
            phi
        })
        .max()
        .unwrap_or(0)
}

/// The hash-map pricer the dense [`LinkLoads`] table replaced: routes every
/// transfer into a fresh `Vec`, counts flows in a `HashMap` and prices a
/// schedule step by step. Kept as the reference the property tests compare
/// the production pricer against, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::collectives::{Schedule, Transfer};
    use crate::topology::{reference_route, FatTree, LinkId};
    use std::collections::HashMap;

    /// Per-link flow counts of a set of concurrent transfers.
    pub fn link_loads(topology: &FatTree, transfers: &[Transfer]) -> HashMap<LinkId, usize> {
        let mut loads: HashMap<LinkId, usize> = HashMap::new();
        for t in transfers {
            for link in reference_route(topology, t.src, t.dst) {
                *loads.entry(link).or_insert(0) += 1;
            }
        }
        loads
    }

    /// Time of one step, priced from a fresh load map.
    pub fn step_time(topology: &FatTree, transfers: &[Transfer]) -> f64 {
        if transfers.is_empty() {
            return 0.0;
        }
        let loads = link_loads(topology, transfers);
        transfers
            .iter()
            .map(|t| {
                if t.src == t.dst {
                    return 0.0;
                }
                let route = reference_route(topology, t.src, t.dst);
                let alpha: f64 =
                    route.iter().map(|&l| topology.link_params(l).alpha).sum::<f64>() / 2.0;
                let beta_eff = route
                    .iter()
                    .map(|&l| {
                        let phi = *loads.get(&l).unwrap_or(&1) as f64;
                        topology.link_params(l).beta * phi
                    })
                    .fold(0.0f64, f64::max);
                alpha + t.bytes * beta_eff
            })
            .fold(0.0f64, f64::max)
    }

    /// Sequential sum of every expanded step's time.
    pub fn schedule_time(topology: &FatTree, schedule: &Schedule) -> f64 {
        schedule.steps().map(|s| step_time(topology, s)).sum()
    }

    /// Largest flow count on any link of any expanded step.
    pub fn max_contention(topology: &FatTree, schedule: &Schedule) -> usize {
        schedule.steps().flat_map(|s| link_loads(topology, s).into_values()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{ring_allreduce, segmented_allreduce};
    use crate::topology::{Direction, LinkId};

    #[test]
    fn disjoint_flows_do_not_contend() {
        let topo = FatTree::paper_system(64);
        // Two transfers inside different nodes.
        let transfers =
            vec![Transfer { src: 0, dst: 1, bytes: 1e6 }, Transfer { src: 4, dst: 5, bytes: 1e6 }];
        let loads = reference::link_loads(&topo, &transfers);
        assert!(loads.values().all(|&v| v == 1));
        let t_two = step_time(&topo, &transfers);
        let t_one = step_time(&topo, &transfers[..1]);
        assert!((t_two - t_one).abs() < 1e-12);
    }

    #[test]
    fn shared_uplink_halves_bandwidth() {
        let topo = FatTree::paper_system(64);
        // Two flows leaving node 0 towards node 1 share the node-0 uplink.
        let one = vec![Transfer { src: 0, dst: 4, bytes: 1e8 }];
        let two =
            vec![Transfer { src: 0, dst: 4, bytes: 1e8 }, Transfer { src: 1, dst: 5, bytes: 1e8 }];
        let t1 = step_time(&topo, &one);
        let t2 = step_time(&topo, &two);
        assert!(t2 > 1.8 * t1, "t1={t1} t2={t2}");
        let loads = reference::link_loads(&topo, &two);
        assert_eq!(loads[&LinkId::NodeToRack { node: 0, dir: Direction::Up }], 2);
    }

    #[test]
    fn empty_step_takes_no_time() {
        let topo = FatTree::single_node(4);
        assert_eq!(step_time(&topo, &[]), 0.0);
        assert_eq!(step_time(&topo, &[Transfer { src: 2, dst: 2, bytes: 1e9 }]), 0.0);
    }

    #[test]
    fn ring_allreduce_time_grows_with_span() {
        let topo = FatTree::paper_system(1024);
        let bytes = 100e6;
        let local: Vec<usize> = (0..4).collect();
        let rack: Vec<usize> = (0..32).collect();
        let t_local = schedule_time(&topo, &ring_allreduce(&local, bytes));
        let t_rack = schedule_time(&topo, &ring_allreduce(&rack, bytes));
        assert!(t_rack > t_local);
    }

    #[test]
    fn segmented_allreduce_exhibits_self_contention() {
        let topo = FatTree::paper_system(64);
        // 4 segments, each spanning one GPU per node across 4 nodes: the
        // per-node uplinks are shared by all 4 concurrent rings.
        let segments: Vec<Vec<usize>> =
            (0..4).map(|g| (0..4).map(|n| n * 4 + g).collect()).collect();
        let sched = segmented_allreduce(&segments, 25e6);
        let phi = max_contention(&topo, &sched);
        assert!(phi >= 4, "expected uplink sharing, got φ = {phi}");
        // A single segment on its own is faster per byte.
        let single = ring_allreduce(&segments[0], 25e6);
        let t_single = schedule_time(&topo, &single);
        let t_all = schedule_time(&topo, &sched);
        assert!(t_all > t_single);
    }

    #[test]
    fn schedule_time_is_sum_of_steps() {
        let topo = FatTree::single_node(4);
        let sched = ring_allreduce(&[0, 1, 2, 3], 4e6);
        let sum: f64 = sched.steps().map(|s| step_time(&topo, s)).sum();
        assert!((schedule_time(&topo, &sched) - sum).abs() < 1e-12);
    }
}
