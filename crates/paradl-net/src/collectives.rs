//! Step-by-step collective communication schedules.
//!
//! The analytical side (`paradl-core::comm`) only needs closed-form times;
//! the simulator needs the actual sequence of point-to-point transfers so
//! that link sharing and contention emerge from the schedule. This module
//! produces those schedules for the collectives the six strategies use:
//! ring Allreduce / Allgather / Reduce-Scatter, binomial-tree broadcast,
//! hierarchical (leader-based) Allreduce and the segmented Allreduce used by
//! the Data+Filter hybrid, plus the halo-exchange pattern of spatial
//! parallelism.

/// One point-to-point transfer belonging to a collective step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Source PE (global rank).
    pub src: usize,
    /// Destination PE (global rank).
    pub dst: usize,
    /// Message size in bytes.
    pub bytes: f64,
}

/// A run of `repeat` consecutive bulk-synchronous steps that each move
/// exactly `transfers`, concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The transfers of each step of the run.
    pub transfers: Vec<Transfer>,
    /// How many identical steps the run stands for.
    pub repeat: usize,
}

impl Run {
    /// A run of a single step.
    pub fn once(transfers: Vec<Transfer>) -> Run {
        Run { transfers, repeat: 1 }
    }
}

/// A collective schedule: a sequence of steps, each step being a set of
/// transfers that proceed concurrently. A step only starts once the
/// previous step has completed on every participant (the bulk-synchronous
/// view NCCL rings follow).
///
/// Steps are stored run-length encoded: every step of a ring phase moves
/// the same transfers, so a `2(p−1)`-step ring Allreduce is two [`Run`]s of
/// `p` transfers rather than `2(p−1)·p` transfers, and pricing it costs
/// two step evaluations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// The runs of identical steps, in execution order.
    pub runs: Vec<Run>,
}

impl Schedule {
    /// The steps of the collective, expanded from the runs, in order.
    pub fn steps(&self) -> impl Iterator<Item = &[Transfer]> + '_ {
        self.runs.iter().flat_map(|r| std::iter::repeat_n(r.transfers.as_slice(), r.repeat))
    }

    /// Total number of steps.
    pub fn num_steps(&self) -> usize {
        self.runs.iter().map(|r| r.repeat).sum()
    }

    /// Total bytes moved by the whole collective (summed step by step).
    pub fn total_bytes(&self) -> f64 {
        self.steps().flatten().map(|t| t.bytes).sum()
    }

    /// Concatenates another schedule after this one.
    pub fn then(mut self, other: Schedule) -> Schedule {
        self.runs.extend(other.runs);
        self
    }
}

/// One ring step over `ranks`: every PE sends `chunk` bytes to its
/// successor.
fn ring_step(ranks: &[usize], chunk: f64) -> Vec<Transfer> {
    let p = ranks.len();
    (0..p).map(|i| Transfer { src: ranks[i], dst: ranks[(i + 1) % p], bytes: chunk }).collect()
}

/// Ring Allreduce over `ranks` with a total buffer of `bytes` bytes:
/// a reduce-scatter phase of `p−1` steps followed by an allgather phase of
/// `p−1` steps, each moving `bytes/p` per PE per step (one run per phase).
pub fn ring_allreduce(ranks: &[usize], bytes: f64) -> Schedule {
    let reduce_scatter = ring_reduce_scatter(ranks, bytes);
    reduce_scatter.clone().then(reduce_scatter)
}

/// Ring Allgather over `ranks`: each PE contributes `bytes / p` and after
/// `p−1` steps (one run) everyone holds the full `bytes` buffer.
pub fn ring_allgather(ranks: &[usize], total_bytes: f64) -> Schedule {
    let p = ranks.len();
    if p <= 1 {
        return Schedule::default();
    }
    Schedule {
        runs: vec![Run { transfers: ring_step(ranks, total_bytes / p as f64), repeat: p - 1 }],
    }
}

/// Ring Reduce-Scatter over `ranks`: `p−1` steps of `bytes/p` per PE.
pub fn ring_reduce_scatter(ranks: &[usize], bytes: f64) -> Schedule {
    ring_allgather(ranks, bytes)
}

/// Binomial-tree broadcast of `bytes` bytes from `ranks[0]` to all ranks.
pub fn tree_broadcast(ranks: &[usize], bytes: f64) -> Schedule {
    let p = ranks.len();
    if p <= 1 {
        return Schedule::default();
    }
    let mut runs = Vec::new();
    let mut have = 1usize; // number of ranks that already hold the data
    while have < p {
        let senders = have.min(p - have);
        let transfers =
            (0..senders).map(|i| Transfer { src: ranks[i], dst: ranks[have + i], bytes }).collect();
        runs.push(Run::once(transfers));
        have += senders;
    }
    Schedule { runs }
}

/// Flat reduce of `bytes` bytes from every rank to `ranks[0]` (each non-root
/// sends its full buffer to the root; used by the leader-based hierarchical
/// Allreduce of the Data+Spatial hybrid).
pub fn flat_reduce_to_root(ranks: &[usize], bytes: f64) -> Schedule {
    let p = ranks.len();
    if p <= 1 {
        return Schedule::default();
    }
    let runs = ranks[1..]
        .iter()
        .map(|&src| Run::once(vec![Transfer { src, dst: ranks[0], bytes }]))
        .collect();
    Schedule { runs }
}

/// Hierarchical Allreduce for `groups` of PEs (e.g. one group per node):
/// a local reduce to each group leader, a ring Allreduce among the leaders,
/// and a local broadcast back to the group members (paper §4.5.1, the
/// Data+Spatial implementation).
pub fn hierarchical_allreduce(groups: &[Vec<usize>], bytes: f64) -> Schedule {
    let mut schedule = Schedule::default();
    // Phase 1: local reduce to leaders (concurrent across groups — merge the
    // per-group steps index-wise so they run in parallel).
    let local: Vec<Schedule> = groups.iter().map(|g| flat_reduce_to_root(g, bytes)).collect();
    schedule = schedule.then(merge_concurrent(&local));
    // Phase 2: Allreduce among leaders.
    let leaders: Vec<usize> = groups.iter().filter_map(|g| g.first().copied()).collect();
    schedule = schedule.then(ring_allreduce(&leaders, bytes));
    // Phase 3: local broadcast from each leader.
    let bcasts: Vec<Schedule> = groups.iter().map(|g| tree_broadcast(g, bytes)).collect();
    schedule.then(merge_concurrent(&bcasts))
}

/// Segmented Allreduce used by the Data+Filter hybrid: `segments[k]` is the
/// set of PEs holding the `k`-th weight shard (one shard per GPU-of-a-node),
/// and the disjoint Allreduces run concurrently — sharing the inter-node
/// links, which is exactly the self-contention the paper's φ = 2 models.
pub fn segmented_allreduce(segments: &[Vec<usize>], bytes_per_segment: f64) -> Schedule {
    let schedules: Vec<Schedule> =
        segments.iter().map(|s| ring_allreduce(s, bytes_per_segment)).collect();
    merge_concurrent(&schedules)
}

/// Halo exchange of spatial parallelism: every PE swaps `halo_bytes` with its
/// logical neighbours in a 1-D decomposition of `ranks` (two transfers per
/// interior boundary, one step for the "left" faces and one for the "right").
pub fn halo_exchange(ranks: &[usize], halo_bytes: f64) -> Schedule {
    let p = ranks.len();
    if p <= 1 || halo_bytes <= 0.0 {
        return Schedule::default();
    }
    let mut right = Vec::new();
    let mut left = Vec::new();
    for i in 0..p - 1 {
        right.push(Transfer { src: ranks[i], dst: ranks[i + 1], bytes: halo_bytes });
        left.push(Transfer { src: ranks[i + 1], dst: ranks[i], bytes: halo_bytes });
    }
    Schedule { runs: vec![Run::once(right), Run::once(left)] }
}

/// Merges several schedules so that their step `i`s run concurrently (used
/// for independent per-group collectives). Runs are merged aligned by step
/// index: a merged run ends wherever any input's run ends, so inputs of
/// unequal length or with different run boundaries merge exactly as their
/// expanded steps would.
pub fn merge_concurrent(schedules: &[Schedule]) -> Schedule {
    // One cursor per input: its remaining runs, and the current run with
    // the number of its steps not merged yet.
    let mut cursors: Vec<_> = schedules
        .iter()
        .map(|s| {
            let mut rest = s.runs.iter().filter(|r| r.repeat > 0);
            let current = rest.next().map(|r| (r, r.repeat));
            (rest, current)
        })
        .collect();
    let mut runs = Vec::new();
    while let Some(repeat) = cursors.iter().filter_map(|(_, c)| c.map(|(_, left)| left)).min() {
        let mut transfers = Vec::new();
        for (rest, current) in &mut cursors {
            if let Some((run, left)) = current {
                transfers.extend_from_slice(&run.transfers);
                *left -= repeat;
                if *left == 0 {
                    *current = rest.next().map(|r| (r, r.repeat));
                }
            }
        }
        runs.push(Run { transfers, repeat });
    }
    Schedule { runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_allreduce_step_count_and_volume() {
        let ranks: Vec<usize> = (0..8).collect();
        let s = ring_allreduce(&ranks, 8.0e6);
        assert_eq!(s.num_steps(), 2 * 7);
        // Every step moves p chunks of m/p bytes => total 2(p-1) * m.
        let expected = 2.0 * 7.0 * 8.0e6;
        assert!((s.total_bytes() - expected).abs() < 1.0);
    }

    #[test]
    fn ring_allgather_has_p_minus_1_steps() {
        let ranks: Vec<usize> = (0..4).collect();
        let s = ring_allgather(&ranks, 4096.0);
        assert_eq!(s.num_steps(), 3);
        assert!((s.total_bytes() - 3.0 * 4096.0).abs() < 1e-9);
    }

    #[test]
    fn single_rank_collectives_are_empty() {
        assert_eq!(ring_allreduce(&[3], 1e6).num_steps(), 0);
        assert_eq!(tree_broadcast(&[3], 1e6).num_steps(), 0);
        assert_eq!(halo_exchange(&[3], 1e6).num_steps(), 0);
    }

    #[test]
    fn tree_broadcast_reaches_everyone_in_log_steps() {
        let ranks: Vec<usize> = (0..8).collect();
        let s = tree_broadcast(&ranks, 100.0);
        assert_eq!(s.num_steps(), 3);
        // All non-root ranks receive exactly once.
        let mut receivers: Vec<usize> = s.steps().flatten().map(|t| t.dst).collect();
        receivers.sort_unstable();
        assert_eq!(receivers, (1..8).collect::<Vec<_>>());
    }

    #[test]
    fn hierarchical_allreduce_composes_three_phases() {
        let groups: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let s = hierarchical_allreduce(&groups, 1e6);
        // local reduce: 3 steps; leader allreduce: 2*(2-1)=2; broadcast: 2 steps.
        assert_eq!(s.num_steps(), 3 + 2 + 2);
        // Leaders are 0 and 4.
        let leader_step = s.steps().nth(3).unwrap();
        assert!(leader_step.iter().all(|t| t.src == 0 || t.src == 4));
    }

    #[test]
    fn segmented_allreduce_runs_segments_concurrently() {
        let segments = vec![vec![0, 4, 8], vec![1, 5, 9]];
        let s = segmented_allreduce(&segments, 3e6);
        assert_eq!(s.num_steps(), 2 * 2); // 2(p-1) with p=3
                                          // One run per ring phase, each step holding both segments' transfers.
        assert_eq!(s.runs.len(), 2);
        let first = s.steps().next().unwrap();
        assert!(first.iter().any(|t| t.src % 4 == 0));
        assert!(first.iter().any(|t| t.src % 4 == 1));
    }

    #[test]
    fn halo_exchange_swaps_between_neighbours() {
        let ranks = [0usize, 1, 2, 3];
        let s = halo_exchange(&ranks, 512.0);
        assert_eq!(s.num_steps(), 2);
        assert_eq!(s.runs[0].transfers.len(), 3);
        assert!((s.total_bytes() - 2.0 * 3.0 * 512.0).abs() < 1e-9);
    }

    #[test]
    fn merge_concurrent_preserves_total_bytes() {
        let a = ring_allreduce(&[0, 1, 2, 3], 1e6);
        let b = ring_allreduce(&[4, 5, 6, 7], 1e6);
        let merged = merge_concurrent(&[a.clone(), b.clone()]);
        assert_eq!(merged.num_steps(), a.num_steps());
        assert!((merged.total_bytes() - (a.total_bytes() + b.total_bytes())).abs() < 1.0);
    }
}
