//! Fat-tree cluster topology with link-level routing.
//!
//! The paper's system connects 4-GPU nodes (NVLink intra-node) through a
//! 3-level fat-tree with full bisection bandwidth intra-rack and 1:3
//! over-subscription inter-rack. For the discrete-event simulator we need a
//! link-level view: every transfer between two PEs is routed over a sequence
//! of [`LinkId`]s, and concurrent transfers sharing a link split its
//! bandwidth — that is how both self-contention (hybrid strategies) and
//! external congestion appear.

use paradl_core::cluster::ClusterSpec;
use paradl_core::comm::LinkParams;

/// Direction of traversal of a (full-duplex) link. Traffic in opposite
/// directions does not contend; traffic in the same direction shares the
/// link's bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Towards the switches (egress from the PE / node / rack).
    Up,
    /// Towards the PEs (ingress).
    Down,
}

/// Identifier of one physical link in the topology, including the traversal
/// direction (links are full duplex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkId {
    /// NVLink/PCIe link between GPU `gpu` and the node switch of `node`.
    GpuToNode {
        /// Global node index.
        node: usize,
        /// GPU index within the node.
        gpu: usize,
        /// Traversal direction.
        dir: Direction,
    },
    /// Node uplink: from node `node` to its rack (leaf) switch.
    NodeToRack {
        /// Global node index.
        node: usize,
        /// Traversal direction.
        dir: Direction,
    },
    /// Rack uplink: from rack `rack` to the core switches.
    RackToCore {
        /// Rack index.
        rack: usize,
        /// Traversal direction.
        dir: Direction,
    },
}

/// Most links a route crosses: GPU, node and rack uplinks on the way up,
/// then the same three levels on the way down.
const MAX_ROUTE_LINKS: usize = 6;

/// The links of one routed transfer, in traversal order, stored inline so
/// that routing never allocates. Dereferences to `[LinkId]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    links: [LinkId; MAX_ROUTE_LINKS],
    len: usize,
}

impl Default for Route {
    fn default() -> Self {
        let unused = LinkId::GpuToNode { node: 0, gpu: 0, dir: Direction::Up };
        Route { links: [unused; MAX_ROUTE_LINKS], len: 0 }
    }
}

impl Route {
    fn push(&mut self, link: LinkId) {
        self.links[self.len] = link;
        self.len += 1;
    }
}

impl std::ops::Deref for Route {
    type Target = [LinkId];

    fn deref(&self) -> &[LinkId] {
        &self.links[..self.len]
    }
}

/// A fat-tree topology of `racks × nodes_per_rack × gpus_per_node` PEs.
#[derive(Debug, Clone, PartialEq)]
pub struct FatTree {
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Number of racks.
    pub racks: usize,
    /// Intra-node link parameters (GPU ↔ node switch).
    pub intra_node: LinkParams,
    /// Node ↔ rack switch link parameters.
    pub node_uplink: LinkParams,
    /// Rack ↔ core link parameters (after over-subscription).
    pub rack_uplink: LinkParams,
}

impl FatTree {
    /// The paper's system sized for at least `min_gpus` GPUs.
    pub fn paper_system(min_gpus: usize) -> Self {
        let gpus_per_node = 4;
        let nodes_per_rack = 17;
        let per_rack = gpus_per_node * nodes_per_rack;
        let racks = min_gpus.div_ceil(per_rack).max(1);
        FatTree {
            gpus_per_node,
            nodes_per_rack,
            racks,
            intra_node: LinkParams::nvlink(),
            node_uplink: LinkParams::infiniband_edr(),
            rack_uplink: LinkParams::infiniband_oversubscribed(),
        }
    }

    /// A fat-tree with the link hierarchy of `cluster`, sized for at least
    /// `min_gpus` GPUs: node size and per-level link parameters come from the
    /// [`ClusterSpec`], so the simulated topology prices the same links the
    /// analytical oracle does. For [`ClusterSpec::paper_system`] this is
    /// parameter-for-parameter [`FatTree::paper_system`].
    pub fn from_cluster(cluster: &ClusterSpec, min_gpus: usize) -> Self {
        let per_rack = cluster.gpus_per_node * cluster.nodes_per_rack;
        FatTree {
            gpus_per_node: cluster.gpus_per_node,
            nodes_per_rack: cluster.nodes_per_rack,
            racks: min_gpus.div_ceil(per_rack.max(1)).max(1),
            intra_node: cluster.intra_node,
            node_uplink: cluster.intra_rack,
            rack_uplink: cluster.inter_rack,
        }
    }

    /// A single-node machine with `gpus` GPUs (no inter-node links involved).
    pub fn single_node(gpus: usize) -> Self {
        FatTree {
            gpus_per_node: gpus,
            nodes_per_rack: 1,
            racks: 1,
            intra_node: LinkParams::nvlink(),
            node_uplink: LinkParams::pcie_gen3(),
            rack_uplink: LinkParams::pcie_gen3(),
        }
    }

    /// Total number of PEs.
    pub fn total_pes(&self) -> usize {
        self.gpus_per_node * self.nodes_per_rack * self.racks
    }

    /// Node index of PE `pe` (node-major rank order).
    pub fn node_of(&self, pe: usize) -> usize {
        pe / self.gpus_per_node
    }

    /// Rack index of PE `pe`.
    pub fn rack_of(&self, pe: usize) -> usize {
        self.node_of(pe) / self.nodes_per_rack
    }

    /// GPU index of PE `pe` within its node.
    pub fn gpu_of(&self, pe: usize) -> usize {
        pe % self.gpus_per_node
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes_per_rack * self.racks
    }

    /// Number of directed links: an up and a down link per GPU, node and
    /// rack.
    pub fn num_links(&self) -> usize {
        2 * (self.total_pes() + self.num_nodes() + self.racks)
    }

    /// Dense index of `link` in `0..num_links()`, a bijection over the
    /// links of this tree: per-link tables (such as the flow counts of the
    /// contention model) are plain arrays instead of hash maps.
    pub fn link_index(&self, link: LinkId) -> usize {
        let slot = |base: usize, dir: Direction| {
            2 * base
                + match dir {
                    Direction::Up => 0,
                    Direction::Down => 1,
                }
        };
        match link {
            LinkId::GpuToNode { node, gpu, dir } => slot(node * self.gpus_per_node + gpu, dir),
            LinkId::NodeToRack { node, dir } => slot(self.total_pes() + node, dir),
            LinkId::RackToCore { rack, dir } => {
                slot(self.total_pes() + self.num_nodes() + rack, dir)
            }
        }
    }

    /// Routes a transfer from `src` to `dst`: the ordered links it
    /// traverses, stored inline. Same-node transfers use only the two GPU
    /// links; same-rack transfers add the node uplinks; cross-rack
    /// transfers add the rack uplinks.
    pub fn route(&self, src: usize, dst: usize) -> Route {
        assert!(src < self.total_pes() && dst < self.total_pes(), "PE out of range");
        let mut route = Route::default();
        if src == dst {
            return route;
        }
        let (sn, dn) = (self.node_of(src), self.node_of(dst));
        route.push(LinkId::GpuToNode { node: sn, gpu: self.gpu_of(src), dir: Direction::Up });
        if sn != dn {
            route.push(LinkId::NodeToRack { node: sn, dir: Direction::Up });
            let (sr, dr) = (self.rack_of(src), self.rack_of(dst));
            if sr != dr {
                route.push(LinkId::RackToCore { rack: sr, dir: Direction::Up });
                route.push(LinkId::RackToCore { rack: dr, dir: Direction::Down });
            }
            route.push(LinkId::NodeToRack { node: dn, dir: Direction::Down });
        }
        route.push(LinkId::GpuToNode { node: dn, gpu: self.gpu_of(dst), dir: Direction::Down });
        route
    }

    /// Parameters (α, β) of a link.
    pub fn link_params(&self, link: LinkId) -> LinkParams {
        match link {
            LinkId::GpuToNode { .. } => self.intra_node,
            LinkId::NodeToRack { .. } => self.node_uplink,
            LinkId::RackToCore { .. } => self.rack_uplink,
        }
    }

    /// End-to-end Hockney parameters of the path `src → dst`: latencies add
    /// up, the bandwidth is the bottleneck (maximum β) along the path.
    pub fn path_params(&self, src: usize, dst: usize) -> LinkParams {
        let route = self.route(src, dst);
        if route.is_empty() {
            return LinkParams { alpha: 0.0, beta: 0.0 };
        }
        let alpha: f64 = route.iter().map(|&l| self.link_params(l).alpha).sum::<f64>() / 2.0;
        let beta = route.iter().map(|&l| self.link_params(l).beta).fold(0.0f64, f64::max);
        LinkParams { alpha, beta }
    }

    /// Point-to-point transfer time of `bytes` bytes from `src` to `dst`
    /// without contention.
    pub fn p2p_time(&self, src: usize, dst: usize, bytes: f64) -> f64 {
        let p = self.path_params(src, dst);
        if src == dst {
            0.0
        } else {
            p.alpha + bytes * p.beta
        }
    }

    /// The PEs that share a node with `pe` (including itself).
    pub fn node_peers(&self, pe: usize) -> Vec<usize> {
        let node = self.node_of(pe);
        (0..self.gpus_per_node).map(|g| node * self.gpus_per_node + g).collect()
    }
}

/// The allocating router the inline [`Route`] replaced, kept as the
/// reference the property tests compare [`FatTree::route`] against.
#[cfg(test)]
pub(crate) fn reference_route(t: &FatTree, src: usize, dst: usize) -> Vec<LinkId> {
    if src == dst {
        return Vec::new();
    }
    let (sn, dn) = (t.node_of(src), t.node_of(dst));
    let mut links = vec![LinkId::GpuToNode { node: sn, gpu: t.gpu_of(src), dir: Direction::Up }];
    if sn != dn {
        links.push(LinkId::NodeToRack { node: sn, dir: Direction::Up });
        let (sr, dr) = (t.rack_of(src), t.rack_of(dst));
        if sr != dr {
            links.push(LinkId::RackToCore { rack: sr, dir: Direction::Up });
            links.push(LinkId::RackToCore { rack: dr, dir: Direction::Down });
        }
        links.push(LinkId::NodeToRack { node: dn, dir: Direction::Down });
    }
    links.push(LinkId::GpuToNode { node: dn, gpu: t.gpu_of(dst), dir: Direction::Down });
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_indexing() {
        let t = FatTree::paper_system(1024);
        assert!(t.total_pes() >= 1024);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(5), 1);
        assert_eq!(t.gpu_of(5), 1);
        assert_eq!(t.rack_of(4 * 17), 1);
    }

    #[test]
    fn paper_cluster_maps_to_paper_topology() {
        // The cluster-derived tree of the paper system is the paper tree:
        // simulations on the default cluster are unchanged by the mapping.
        for n in [4usize, 64, 1024] {
            assert_eq!(
                FatTree::from_cluster(&ClusterSpec::paper_system(), n),
                FatTree::paper_system(n)
            );
        }
        // A fatter cluster changes the simulated links too.
        let fat = ClusterSpec {
            gpus_per_node: 8,
            intra_rack: LinkParams::from_latency_bandwidth(10.0, 25.0),
            ..ClusterSpec::paper_system()
        };
        let t = FatTree::from_cluster(&fat, 64);
        assert_eq!(t.gpus_per_node, 8);
        assert_eq!(t.node_uplink, fat.intra_rack);
        assert!(t.total_pes() >= 64);
    }

    #[test]
    fn same_node_route_stays_local() {
        let t = FatTree::paper_system(64);
        let route = t.route(0, 1);
        assert_eq!(route.len(), 2);
        assert!(route.iter().all(|l| matches!(l, LinkId::GpuToNode { node: 0, .. })));
    }

    #[test]
    fn cross_node_route_uses_uplinks() {
        let t = FatTree::paper_system(64);
        let route = t.route(0, 4); // different node, same rack
        assert!(route.contains(&LinkId::NodeToRack { node: 0, dir: Direction::Up }));
        assert!(route.contains(&LinkId::NodeToRack { node: 1, dir: Direction::Down }));
        assert!(!route.iter().any(|l| matches!(l, LinkId::RackToCore { .. })));
    }

    #[test]
    fn cross_rack_route_uses_core() {
        let t = FatTree::paper_system(1024);
        let far = 4 * 17 * 2; // first PE of rack 2
        let route = t.route(0, far);
        assert!(route
            .iter()
            .any(|l| matches!(l, LinkId::RackToCore { rack: 0, dir: Direction::Up })));
        assert!(route
            .iter()
            .any(|l| matches!(l, LinkId::RackToCore { rack: 2, dir: Direction::Down })));
    }

    #[test]
    fn opposite_directions_are_distinct_links() {
        let t = FatTree::paper_system(64);
        let fwd = t.route(0, 4);
        let rev = t.route(4, 0);
        // The forward and reverse paths share no directed link.
        assert!(fwd.iter().all(|l| !rev.contains(l)));
    }

    #[test]
    fn path_bandwidth_is_bottleneck() {
        let t = FatTree::paper_system(1024);
        let local = t.path_params(0, 1);
        let rack = t.path_params(0, 4);
        let core = t.path_params(0, 4 * 17 * 2);
        assert!(local.beta <= rack.beta);
        assert!(rack.beta <= core.beta);
        assert_eq!(t.p2p_time(3, 3, 1e6), 0.0);
        assert!(t.p2p_time(0, 1, 1e6) < t.p2p_time(0, 4, 1e6));
    }

    #[test]
    fn node_peers_are_the_four_gpus() {
        let t = FatTree::paper_system(64);
        assert_eq!(t.node_peers(6), vec![4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "PE out of range")]
    fn route_rejects_out_of_range() {
        let t = FatTree::single_node(4);
        let _ = t.route(0, 10);
    }
}
