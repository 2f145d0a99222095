//! Property tests pinning the run-length schedules and the dense-table
//! pricer to the step-by-step, hash-map implementation they replaced.
//!
//! Random fat-trees (random shape and link parameters) carry random
//! schedules — rings, segmented Allreduces with uneven segments,
//! hierarchical Allreduces, halo exchanges, broadcasts, and
//! `merge_concurrent` of schedules of unequal length — and every check is
//! exact: times are compared with `f64::to_bits`.

use crate::collectives::{
    flat_reduce_to_root, halo_exchange, hierarchical_allreduce, merge_concurrent, ring_allgather,
    ring_allreduce, ring_reduce_scatter, segmented_allreduce, tree_broadcast, Schedule, Transfer,
};
use crate::contention::{max_contention, reference, schedule_time};
use crate::topology::{reference_route, Direction, FatTree, LinkId};
use paradl_core::comm::LinkParams;
use proptest::prelude::{prop_assert, proptest, ProptestConfig};
use proptest::test_runner::TestRng;

fn link(rng: &mut TestRng) -> LinkParams {
    LinkParams { alpha: 1e-6 + 1e-5 * rng.next_f64(), beta: 1e-11 + 1e-9 * rng.next_f64() }
}

/// A random tree of at most 5 × 4 × 4 = 80 PEs.
fn arb_tree(rng: &mut TestRng) -> FatTree {
    FatTree {
        gpus_per_node: rng.gen_usize(1..6),
        nodes_per_rack: rng.gen_usize(1..5),
        racks: rng.gen_usize(1..5),
        intra_node: link(rng),
        node_uplink: link(rng),
        rack_uplink: link(rng),
    }
}

/// `n` distinct PEs of `tree` in random order.
fn arb_ranks(rng: &mut TestRng, tree: &FatTree, n: usize) -> Vec<usize> {
    let mut pes: Vec<usize> = (0..tree.total_pes()).collect();
    for i in (1..pes.len()).rev() {
        pes.swap(i, rng.gen_usize(0..i + 1));
    }
    pes.truncate(n.min(pes.len()));
    pes
}

/// Splits `ranks` into consecutive groups of random (uneven) sizes.
fn arb_groups(rng: &mut TestRng, ranks: &[usize]) -> Vec<Vec<usize>> {
    let mut groups = Vec::new();
    let mut rest = ranks;
    while !rest.is_empty() {
        let take = rng.gen_usize(1..rest.len() + 1);
        groups.push(rest[..take].to_vec());
        rest = &rest[take..];
    }
    groups
}

fn arb_schedule(rng: &mut TestRng, tree: &FatTree, depth: usize) -> Schedule {
    let n = rng.gen_usize(1..tree.total_pes() + 1);
    let ranks = arb_ranks(rng, tree, n);
    let bytes = 1.0 + 1e7 * rng.next_f64();
    match rng.gen_usize(0..if depth == 0 { 8 } else { 10 }) {
        0 => ring_allreduce(&ranks, bytes),
        1 => ring_allgather(&ranks, bytes),
        2 => ring_reduce_scatter(&ranks, bytes),
        3 => segmented_allreduce(&arb_groups(rng, &ranks), bytes),
        4 => hierarchical_allreduce(&arb_groups(rng, &ranks), bytes),
        5 => halo_exchange(&ranks, bytes),
        6 => tree_broadcast(&ranks, bytes),
        7 => flat_reduce_to_root(&ranks, bytes),
        8 => {
            let parts: Vec<Schedule> =
                (0..rng.gen_usize(1..4)).map(|_| arb_schedule(rng, tree, depth - 1)).collect();
            merge_concurrent(&parts)
        }
        _ => arb_schedule(rng, tree, depth - 1).then(arb_schedule(rng, tree, depth - 1)),
    }
}

/// The steps of `schedule`, expanded run by run with explicit loops.
fn expand(schedule: &Schedule) -> Vec<Vec<Transfer>> {
    let mut steps = Vec::new();
    for run in &schedule.runs {
        for _ in 0..run.repeat {
            steps.push(run.transfers.clone());
        }
    }
    steps
}

/// The step-indexed merge `merge_concurrent` performed before schedules
/// were run-length encoded.
fn reference_merge(schedules: &[Vec<Vec<Transfer>>]) -> Vec<Vec<Transfer>> {
    let depth = schedules.iter().map(Vec::len).max().unwrap_or(0);
    let mut steps = vec![Vec::new(); depth];
    for s in schedules {
        for (i, step) in s.iter().enumerate() {
            steps[i].extend_from_slice(step);
        }
    }
    steps
}

/// Every directed link of `tree`.
fn all_links(tree: &FatTree) -> Vec<LinkId> {
    let mut links = Vec::new();
    for dir in [Direction::Up, Direction::Down] {
        for node in 0..tree.num_nodes() {
            links.extend((0..tree.gpus_per_node).map(|gpu| LinkId::GpuToNode { node, gpu, dir }));
            links.push(LinkId::NodeToRack { node, dir });
        }
        links.extend((0..tree.racks).map(|rack| LinkId::RackToCore { rack, dir }));
    }
    links
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_length_pricing_matches_the_step_by_step_reference(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let tree = arb_tree(&mut rng);
        let schedule = arb_schedule(&mut rng, &tree, 2);
        let fast = schedule_time(&tree, &schedule);
        let slow = reference::schedule_time(&tree, &schedule);
        prop_assert!(fast.to_bits() == slow.to_bits(), "{fast:e} != {slow:e} on {tree:?}");
        prop_assert!(
            max_contention(&tree, &schedule) == reference::max_contention(&tree, &schedule)
        );
    }

    #[test]
    fn run_length_counts_match_the_expanded_steps(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let tree = arb_tree(&mut rng);
        let schedule = arb_schedule(&mut rng, &tree, 2);
        let steps = expand(&schedule);
        prop_assert!(schedule.num_steps() == steps.len());
        let bytes: f64 = steps.iter().flatten().map(|t| t.bytes).sum();
        prop_assert!(schedule.total_bytes().to_bits() == bytes.to_bits());
        prop_assert!(schedule.steps().eq(steps.iter().map(Vec::as_slice)));
    }

    #[test]
    fn merged_runs_expand_to_the_step_indexed_merge(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let tree = arb_tree(&mut rng);
        let parts: Vec<Schedule> =
            (0..rng.gen_usize(1..5)).map(|_| arb_schedule(&mut rng, &tree, 1)).collect();
        let expanded: Vec<Vec<Vec<Transfer>>> = parts.iter().map(expand).collect();
        prop_assert!(expand(&merge_concurrent(&parts)) == reference_merge(&expanded));
    }

    #[test]
    fn inline_routes_match_the_allocating_router(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let tree = arb_tree(&mut rng);
        for src in 0..tree.total_pes() {
            for dst in 0..tree.total_pes() {
                let route = tree.route(src, dst);
                prop_assert!(*route == *reference_route(&tree, src, dst), "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn link_index_is_a_bijection_onto_the_link_table(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let tree = arb_tree(&mut rng);
        let mut indices: Vec<usize> =
            all_links(&tree).into_iter().map(|l| tree.link_index(l)).collect();
        indices.sort_unstable();
        prop_assert!(indices == (0..tree.num_links()).collect::<Vec<_>>());
    }
}
