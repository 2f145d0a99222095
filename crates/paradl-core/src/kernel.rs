//! The analytic candidate-evaluation kernel: static dominance bounds,
//! branchless survivor compaction and fresh estimates over the
//! structure-of-arrays prep columns.
//!
//! `eval_chunk_kernel` is the one evaluation loop behind every ranked
//! query. Its only caller is the sweep of [`crate::grid::GridSweep`], which
//! runs grids, the daemon's coalesced groups, and — as one-cell grids —
//! `Oracle::search`, ranked `Oracle::answer`s and `Query::run`. A chunk is a
//! pure function of its rows: it returns its prune count and its costed
//! candidates, and the sweep merges a cell's chunks into one report. The
//! kernel works in three layers:
//!
//! 1. **Static dominance bounds** (`StaticBounds`). Before any candidate
//!    is costed, a tiny seed panel — the per-(strategy family, PE-budget
//!    slot) compute-lower-bound minima, at most `8 × budget slots`
//!    candidates — is fully costed. The k-th best seed time `T` is an upper
//!    bound on the final k-th best overall, and the running per-slot minimum
//!    `R[s]` bounds every budget winner at slots `≤ s`, so any candidate
//!    whose exact epoch time exceeds `max(T, R[slot])` provably ends up
//!    outside both the top-k and every budget slot it could win. The bound
//!    is fixed before the scan starts, so the pruned *set* — and the
//!    `pruned_by_dominance` counter — is deterministic.
//! 2. **Branchless fused evaluation** (top-k mode). Candidates arrive in
//!    sorted-superset order (family-major, so the per-family coefficient
//!    dispatch is branch-predicted within runs, and equal PE-budget slots
//!    form runs whose bound is hoisted). One pass per chunk prices
//!    each feasible candidate's *exact* epoch time from the batch-invariant
//!    communication-coefficient row (`lb` plus the communication phases the
//!    engine prices every estimate with, so it is the full estimate's epoch
//!    time by construction) and compacts the indices and times within the
//!    static bound — branch-free, one conditional-increment store per
//!    candidate. A second pass folds those survivors into the chunk's own
//!    `k` best and its best row per PE-budget slot, both ordered by (time
//!    bits, strategy sort key, row), and the full
//!    [`crate::cost::CostEstimate`] is built only for the rows of those two
//!    sets. The fold is exact: every row of a cell's final top-k is in its
//!    chunk's top-k, and every budget winner is its chunk's best for its
//!    slot.
//! 3. **Fresh estimates** (full-ranking mode). Nothing may be pruned, so
//!    every feasible candidate gets its own [`CostEngine::estimate`] — the
//!    same compute terms and communication formula as the top-k pass, from
//!    a freshly derived coefficient row.
//!
//! The kernel is *exact*: ranked output, budget winners and the
//! `enumerated`/`pruned_by_memory` accounting match the per-layer
//! `Oracle::search_reference` up to floating-point reassociation
//! (property-tested in `tests/proptest_search.rs` and
//! `tests/proptest_grid.rs`); static pruning is sound because every pruned
//! candidate is strictly dominated by a surviving one at every admissible
//! PE budget. The chunk granularity is tunable through
//! [`GridSweep::with_chunk_size`](crate::grid::GridSweep::with_chunk_size);
//! the default is picked by the chunk sweep recorded in `BENCH_kernel.json`.

use crate::engine::{CommCoef, CostEngine};
use crate::grid::Superset;
use crate::oracle::{Constraints, Projection};
use crate::search::{strategy_sort_key, RankedCandidate};
use crate::strategy::Strategy;
use std::collections::BinaryHeap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default candidates-per-chunk granularity of the interleaved evaluation:
/// small enough that a paper-scale query splits into dozens of units, large
/// enough that chunk dispatch cost is negligible and the mask pass stays in
/// cache. Chosen by the chunk sweep in `bench_kernel_summary` (recorded in
/// `BENCH_kernel.json`).
pub(crate) const DEFAULT_CHUNK: usize = 8192;

/// Number of strategy families distinguished by the seed panel — the first
/// component of the enumeration sort key (Serial, Data, Spatial, Filter,
/// Channel, Pipeline, DataFilter, DataSpatial).
const FAMILIES: usize = 8;

/// Selects the seed panel: for every (strategy family, PE-budget slot)
/// pair, the row index of the memory-feasible candidate with the smallest
/// compute-only lower bound. `fams` holds each row's family byte
/// ([`crate::strategy::StrategyKind`] as `u8`, the leading component of the
/// enumeration sort key). Deterministic (forward scan, strict-improvement
/// updates, so ties keep the first candidate in enumeration order) and
/// cluster-independent — the lower-bound column only depends on the device,
/// so the grid sweep selects seeds once per (model, batch, device) prep.
pub(crate) fn select_seeds(fams: &[u8], lbs: &[f64], slots: &[u8], n_slots: usize) -> Vec<usize> {
    let mut best: Vec<Option<usize>> = vec![None; FAMILIES * n_slots];
    for (i, &fam) in fams.iter().enumerate() {
        let key = fam as usize * n_slots + slots[i] as usize;
        let better = match best[key] {
            Some(j) => lbs[i] < lbs[j],
            None => true,
        };
        if better {
            best[key] = Some(i);
        }
    }
    let mut seeds: Vec<usize> = best.into_iter().flatten().collect();
    seeds.sort_unstable();
    seeds
}

/// Per-budget-slot static prune bounds, fixed before the evaluation scan:
/// a candidate at slot `s` whose exact epoch time (priced from the
/// comm-coefficient columns) exceeds `bound[s]` is provably outside the
/// final top-k *and* every budget slot it is admissible for, so it is
/// discarded without building an estimate.
///
/// `bound[s] = max(T, R[s])` where `T` is the k-th smallest fully-costed
/// seed time (`+∞` when fewer than `k` seeds exist, `−∞` when `k == 0`)
/// and `R[s]` is the running minimum of the per-slot best seed times over
/// slots `≤ s`. Soundness: a pruned candidate's epoch time is strictly
/// above `T`, so the `k` seeds at or below `T` — within every bound, so
/// never pruned — all rank ahead of it. It is also strictly above `R[s]`,
/// the time of the fastest seed at slots `≤ s`; that seed is within its
/// own slot's bound, fits every budget the pruned candidate fits, and so
/// beats it there. In full-ranking mode every bound is `+∞` — nothing may
/// be dropped.
pub(crate) struct StaticBounds {
    /// Prune threshold per PE-budget slot.
    pub(crate) bound: Vec<f64>,
}

impl StaticBounds {
    /// Costs the seed panel from the cell's coefficient column (top-k mode
    /// only; full ranking has no column and prunes nothing) and derives the
    /// bounds of `n_slots` PE-budget slots.
    pub(crate) fn from_seeds(
        engine: &CostEngine<'_>,
        cols: &KernelColumns<'_>,
        seeds: &[usize],
        top_k: Option<usize>,
        n_slots: usize,
    ) -> StaticBounds {
        let Some(k) = top_k else {
            return StaticBounds { bound: vec![f64::INFINITY; n_slots] };
        };
        let mut slot_u = vec![f64::INFINITY; n_slots];
        let mut times: Vec<f64> = Vec::with_capacity(seeds.len());
        for &i in seeds {
            let t = cols.time(engine, i);
            times.push(t);
            let s = cols.slots[i] as usize;
            slot_u[s] = slot_u[s].min(t);
        }
        let t_k = if k == 0 {
            f64::NEG_INFINITY
        } else if times.len() >= k {
            times.sort_unstable_by(f64::total_cmp);
            times[k - 1]
        } else {
            f64::INFINITY
        };
        let mut running = f64::INFINITY;
        let bound = slot_u
            .iter()
            .map(|&u| {
                running = running.min(u);
                t_k.max(running)
            })
            .collect();
        StaticBounds { bound }
    }
}

/// Reusable buffers — the compacted survivor lanes — retaining capacity
/// across chunks so the evaluation pass never allocates. They live in a
/// process-wide pool ([`SCRATCH`]), not in thread-locals: the worker pool
/// spawns its threads per parallel call, so a thread-local buffer would be
/// allocated again on every sweep.
#[derive(Default)]
struct KernelScratch {
    /// Branchless survivor compaction: the evaluation pass writes each row
    /// index unconditionally and bumps the length by the keep bit, so the
    /// fold walks exactly the survivors instead of re-scanning a mask lane
    /// over the whole chunk.
    surv: Vec<u32>,
    /// Exact epoch times aligned with `surv`, so the fold never
    /// recomputes communication.
    tims: Vec<f64>,
}

/// Idle [`KernelScratch`] buffers: a chunk takes one (or a new one) and
/// returns it if it is no larger than a [`DEFAULT_CHUNK`] chunk needs, so
/// the pool holds at most one default-sized buffer per chunk ever evaluated
/// at once, and a sweep with larger chunks leaves none of its buffers
/// behind.
static SCRATCH: Mutex<Vec<KernelScratch>> = Mutex::new(Vec::new());

/// The scratch pool, recovered if a panicking chunk poisoned it (it only
/// holds buffers whose contents the next chunk overwrites).
fn scratch_pool() -> MutexGuard<'static, Vec<KernelScratch>> {
    SCRATCH.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A survivor's place in the ranking order: its epoch time's bits
/// (non-negative times order like their bits), its strategy sort key, and
/// its row. Orders exactly like [`crate::search::candidate_cmp`] on the
/// candidates the rows become.
type Rank = (u64, (u8, usize, usize, usize, usize), u32);

/// The structure-of-arrays candidate columns one [`eval_chunk_kernel`] call
/// scans: the caller's prep rows (superset index, lower bound, budget slot,
/// family byte), the model's candidate `superset` the rows index into (row
/// `x` is `superset[sup[x]]`), and the superset-aligned
/// communication-coefficient column of the cell's (model, cluster) pair,
/// which the fused evaluation pass prices with the engine's communication
/// formula (dispatched on the `fams` byte). No memory column: the rows are
/// memory-feasible, and an estimate recomputes the per-PE memory
/// (bit-identical to the prep's capacity check). Only top-k mode reads
/// `fams`/`coef`; a full-ranking sweep passes an empty `coef`.
#[derive(Clone, Copy)]
pub(crate) struct KernelColumns<'c> {
    pub(crate) superset: &'c Superset,
    pub(crate) sup: &'c [u32],
    pub(crate) lbs: &'c [f64],
    pub(crate) slots: &'c [u8],
    pub(crate) fams: &'c [u8],
    pub(crate) coef: &'c [CommCoef],
}

impl KernelColumns<'_> {
    /// The strategy of row `x`.
    #[inline]
    fn strategy(&self, x: usize) -> Strategy {
        self.superset.get(self.sup[x] as usize)
    }

    /// The exact epoch time of row `x`: its compute lower bound plus the
    /// communication phases of its coefficient row — bit-identical to
    /// `engine.estimate(..).epoch_time()`, which adds the same two sums.
    /// Always inlined: it is the evaluation pass's per-candidate body.
    #[inline(always)]
    fn time(&self, engine: &CostEngine<'_>, x: usize) -> f64 {
        self.lbs[x]
            + engine.comm_phases(self.fams[x], &self.coef[self.sup[x] as usize]).communication()
    }

    /// Row `x` as a ranked candidate with a fresh full estimate.
    fn candidate(&self, engine: &CostEngine<'_>, x: usize) -> RankedCandidate {
        let strategy = self.strategy(x);
        let cost = engine.estimate(strategy);
        RankedCandidate {
            strategy,
            projection: Projection { cost, fits_memory: true, within_scaling_limit: true },
        }
    }
}

/// Evaluates rows `lo..hi` through the analytic kernel and returns how many
/// the static bound pruned together with the chunk's costed candidates, in
/// no particular order. The structure-of-arrays columns come from the
/// caller's prep pass; `bounds` is the cell's static prune table.
///
/// Top-k mode runs the fused evaluation pass: per slot run it hoists the
/// static bound, computes each candidate's exact epoch time from the
/// coefficient columns, counts the rows above the bound and branch-free
/// compacts the rest into the survivor lanes. The fold over the survivors
/// keeps the chunk's `k` best and its best row per PE-budget slot, and only
/// those rows get a full estimate.
/// Full-ranking mode builds a fresh estimate for every row and prunes
/// nothing.
pub(crate) fn eval_chunk_kernel(
    engine: &CostEngine<'_>,
    cols: &KernelColumns<'_>,
    bounds: &StaticBounds,
    lo: usize,
    hi: usize,
    constraints: &Constraints,
) -> (usize, Vec<RankedCandidate>) {
    let Some(k) = constraints.top_k else {
        return (0, (lo..hi).map(|x| cols.candidate(engine, x)).collect());
    };
    let slots = cols.slots;
    let mut scratch = scratch_pool().pop().unwrap_or_default();
    let (pruned, ranks) = {
        let scratch = &mut scratch;
        let surv = &mut scratch.surv;
        surv.clear();
        surv.resize(hi - lo, 0);
        let tims = &mut scratch.tims;
        tims.clear();
        tims.resize(hi - lo, 0.0);
        // Fused evaluation pass. Candidates arrive in sorted-superset
        // order — family-major (the sort key leads with the family byte),
        // budget slots non-decreasing within a family — so equal slots form
        // runs: hoist the bound per run and compact the surviving row
        // indices branch-free (unconditional index/time store, length
        // bumped by the keep bit); the family dispatch inside `comm_phases`
        // is perfectly predicted within a run. The pass computes each
        // candidate's *exact* epoch time — pricing a coefficient row costs
        // barely more than a lower bound and spares the fold any
        // recomputation. The cut (`time ≤ bound`, counted as
        // dominance-pruned) is deterministic: the bound is fixed before the
        // scan and the time is exact, and a candidate above it is provably
        // outside the top-k and every budget slot it is admissible for (the
        // `StaticBounds` argument).
        let mut i = lo;
        let mut n = 0usize;
        while i < hi {
            let slot = slots[i];
            let mut j = i;
            while j < hi && slots[j] == slot {
                j += 1;
            }
            let b = bounds.bound[slot as usize];
            for x in i..j {
                let time = cols.time(engine, x);
                surv[n] = x as u32;
                tims[n] = time;
                n += (time <= b) as usize;
            }
            i = j;
        }
        let pruned = (hi - lo) - n;
        // Fold: the chunk's `k` best (a max-heap whose top is the worst
        // kept) and its best row per slot. The sort key is computed only
        // for a survivor whose time can still place in either set.
        let mut heap: BinaryHeap<Rank> = BinaryHeap::new();
        let mut best: Vec<Option<Rank>> = vec![None; bounds.bound.len()];
        for (&xu, &time) in surv[..n].iter().zip(&tims[..n]) {
            let bits = time.to_bits();
            let slot = &mut best[slots[xu as usize] as usize];
            let to_slot = slot.is_none_or(|r| bits <= r.0);
            let to_heap = heap.len() < k || heap.peek().is_some_and(|r| bits <= r.0);
            if !to_slot && !to_heap {
                continue;
            }
            let rank = (bits, strategy_sort_key(&cols.strategy(xu as usize)), xu);
            if to_slot && slot.is_none_or(|r| rank < r) {
                *slot = Some(rank);
            }
            if to_heap {
                heap.push(rank);
                if heap.len() > k {
                    heap.pop();
                }
            }
        }
        let mut ranks: Vec<Rank> = heap.into_vec();
        ranks.extend(best.into_iter().flatten());
        ranks.sort_unstable();
        ranks.dedup();
        (pruned, ranks)
    };
    if scratch.surv.capacity().max(scratch.tims.capacity()) <= DEFAULT_CHUNK {
        scratch_pool().push(scratch);
    }
    // Full estimates for the union of the two sets only.
    let found = ranks
        .into_iter()
        .map(|(bits, _, x)| {
            let c = cols.candidate(engine, x as usize);
            debug_assert_eq!(
                bits,
                c.epoch_time().to_bits(),
                "scalar kernel time diverged from the full estimate for {}",
                c.strategy,
            );
            debug_assert!(
                c.projection.cost.memory_per_pe_bytes <= constraints.memory_capacity_bytes,
                "recomputed memory diverged from the prep's capacity check for {}",
                c.strategy,
            );
            c
        })
        .collect();
    (pruned, found)
}
