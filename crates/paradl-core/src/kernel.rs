//! The analytic candidate-evaluation kernel: static dominance bounds,
//! branchless survivor compaction and incremental cost deltas over the
//! structure-of-arrays prep columns.
//!
//! `eval_chunk_kernel` is the one evaluation loop behind every ranked
//! query. Its only caller is the sweep of [`crate::grid::GridSweep`], which
//! runs grids, the daemon's coalesced groups, and — as one-cell grids —
//! `Oracle::search`, ranked `Oracle::answer`s and `Query::run`. The kernel
//! works in three layers:
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
//!    form runs whose bound is hoisted). One pass per chunk reconstructs
//!    each feasible candidate's *exact* epoch time from the batch-invariant
//!    communication-coefficient row (`lb` plus the reconstructed
//!    communication time, bit-identical to the full estimate's epoch time)
//!    and compacts the indices and times that beat both the static bound
//!    and a stale snapshot of the shared top-k/budget thresholds —
//!    branch-free, one conditional-increment store per candidate. Only that
//!    survivor list is walked again, and the full
//!    [`crate::cost::CostEstimate`] is assembled only for the rare candidate
//!    that improves a budget slot or enters the top-k heap.
//! 3. **Incremental cost deltas** (full-ranking mode). Lexicographically
//!    adjacent candidates differ in one axis, so
//!    [`CostEngine::estimate_delta_with_memory`] chains each candidate off
//!    its predecessor, copying the phase terms the axis change provably
//!    leaves bit-identical (see the `engine` module docs for which tables
//!    the delta path may reuse) instead of recomputing them.
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

use crate::cost::CostEstimate;
use crate::engine::{CommCoef, CostEngine};
use crate::oracle::{Constraints, Projection};
use crate::search::{candidate_cmp, strategy_sort_key, RankedCandidate, SearchShared};
use crate::strategy::Strategy;
use std::cell::RefCell;
use std::sync::Mutex;

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
/// pair, the index of the memory-feasible candidate with the smallest
/// compute-only lower bound. Deterministic (forward scan, strict-improvement
/// updates, so ties keep the first candidate in enumeration order) and
/// cluster-independent — the lower-bound column only depends on the device,
/// so the grid sweep selects seeds once per (model, batch, device) prep.
pub(crate) fn select_seeds(
    cands: &[Strategy],
    lbs: &[f64],
    slots: &[u8],
    n_slots: usize,
) -> Vec<usize> {
    let mut best: Vec<Option<usize>> = vec![None; FAMILIES * n_slots];
    for (i, s) in cands.iter().enumerate() {
        let fam = strategy_sort_key(s).0 as usize;
        let key = fam * n_slots + slots[i] as usize;
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
/// a candidate at slot `s` whose exact epoch time (reconstructed from the
/// comm-coefficient columns) exceeds `bound[s]` is provably outside the
/// final top-k *and* every budget slot it is admissible for, so it is
/// discarded without building an estimate.
///
/// `bound[s] = max(T, R[s])` where `T` is the k-th smallest fully-costed
/// seed time (`+∞` when fewer than `k` seeds exist, `−∞` when `k == 0`)
/// and `R[s]` is the running minimum of the per-slot best seed times over
/// slots `≤ s`. Soundness: a pruned candidate's epoch time is strictly
/// above `T` (it cannot displace the k seeds
/// already at or below `T`) and strictly above some surviving candidate's
/// time at a slot `≤ s` (which [`finish_report_topk`]'s running minimum
/// offers to every budget the pruned candidate is admissible for). In
/// full-ranking mode every bound is `+∞` — nothing may be dropped.
pub(crate) struct StaticBounds {
    /// Prune threshold per PE-budget slot.
    pub(crate) bound: Vec<f64>,
}

impl StaticBounds {
    /// Costs the seed panel and derives the per-slot bounds, pre-tightening
    /// `shared`'s top-k threshold and per-budget best times with the seed
    /// results (sound: seeds are real candidates, re-offered during the
    /// scan, so priming never changes the final report).
    pub(crate) fn from_seeds(
        engine: &CostEngine<'_>,
        cands: &[Strategy],
        lbs: &[f64],
        slots: &[u8],
        seeds: &[usize],
        shared: &SearchShared,
    ) -> StaticBounds {
        let n_slots = shared.num_budget_slots();
        let Some(k) = shared.top_k() else {
            return StaticBounds { bound: vec![f64::INFINITY; n_slots] };
        };
        let mut slot_u = vec![f64::INFINITY; n_slots];
        let mut times: Vec<f64> = Vec::with_capacity(seeds.len());
        for &i in seeds {
            let t = lbs[i] + engine.comm_time(cands[i]);
            times.push(t);
            let s = slots[i] as usize;
            if t < slot_u[s] {
                slot_u[s] = t;
            }
        }
        let t_k = if k == 0 {
            f64::NEG_INFINITY
        } else if times.len() >= k {
            times.sort_unstable_by(|a, b| a.total_cmp(b));
            let t = times[k - 1];
            shared.prime_threshold(t);
            t
        } else {
            f64::INFINITY
        };
        let mut bound = vec![f64::INFINITY; n_slots];
        let mut running = f64::INFINITY;
        for (s, &u) in slot_u.iter().enumerate() {
            if u.is_finite() {
                shared.record_budget(s, u);
            }
            running = running.min(u);
            bound[s] = t_k.max(running);
        }
        StaticBounds { bound }
    }
}

/// Per-worker reusable buffers — the compacted survivor-index lane and the
/// full-ranking survivor batch — retaining capacity across chunks so the
/// hot path never allocates.
#[derive(Default)]
struct KernelScratch {
    /// Branchless survivor compaction: the evaluation pass writes each row
    /// index unconditionally and bumps the length by the keep bit, so the
    /// finishing pass walks exactly the survivors instead of re-scanning a
    /// mask lane over the whole chunk.
    surv: Vec<u32>,
    /// Exact epoch times aligned with `surv`, so the finishing pass never
    /// recomputes communication.
    tims: Vec<f64>,
    found: Vec<RankedCandidate>,
    /// Stale per-slot budget-best snapshot, refreshed once per chunk (the
    /// shared values only decrease, so a stale bound is conservative).
    bud: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::default());
}

/// The structure-of-arrays candidate columns one [`eval_chunk_kernel`] call
/// scans: the caller's prep columns plus the superset-aligned
/// communication-coefficient column of the cell's (model, cluster) pair,
/// from which the fused evaluation pass reconstructs every candidate's
/// exact communication time ([`CostEngine::comm_time_prepped`], dispatched
/// on the `fams` byte). Only top-k mode reads `sup`/`fams`/`coef`; a
/// full-ranking sweep passes an empty `coef`.
pub(crate) struct KernelColumns<'c> {
    pub(crate) cands: &'c [Strategy],
    pub(crate) mems: &'c [f64],
    pub(crate) lbs: &'c [f64],
    pub(crate) slots: &'c [u8],
    pub(crate) sup: &'c [u32],
    pub(crate) fams: &'c [u8],
    pub(crate) coef: &'c [CommCoef],
}

/// Evaluates one candidate chunk through the analytic kernel. The
/// structure-of-arrays columns come from the caller's prep pass; `bounds`
/// is the chunk-invariant static prune table.
/// Top-k mode runs the fused evaluation pass: per slot run it hoists the
/// static bound, computes each candidate's exact epoch time from the
/// coefficient columns, bulk-counts the static-bound prunes, and branch-free-compacts the
/// indices and times beating the stale dynamic threshold snapshot into the
/// survivor list; the finishing pass re-checks survivors against the fresh
/// shared gates and assembles a full estimate only for candidates that
/// improve a budget slot or the heap.
/// Full-ranking mode costs every candidate through the incremental delta
/// chain and appends to `found` once per chunk. Every shared-state
/// transition is monotone (thresholds only decrease, winners are minima
/// under a total order), so any interleaving of chunks produces the same
/// final report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn eval_chunk_kernel(
    engine: &CostEngine<'_>,
    cols: KernelColumns<'_>,
    bounds: &StaticBounds,
    lo: usize,
    hi: usize,
    constraints: &Constraints,
    shared: &SearchShared,
    winners: &[Mutex<Option<RankedCandidate>>],
    found: &Mutex<Vec<RankedCandidate>>,
) {
    let KernelColumns { cands, mems, lbs, slots, sup, fams, coef } = cols;
    if constraints.top_k.is_some() {
        SCRATCH.with(|tls| {
            let scratch = &mut *tls.borrow_mut();
            let surv = &mut scratch.surv;
            surv.clear();
            surv.resize(hi - lo, 0);
            let tims = &mut scratch.tims;
            tims.clear();
            tims.resize(hi - lo, 0.0);
            // Stale snapshots of the shared prune state, refreshed once per
            // chunk: both the threshold and the per-slot budget bests only
            // ever decrease, so a value above a snapshot is above the fresh
            // one too — the evaluation and finishing passes gate on two
            // local compares instead of two cross-thread atomic loads, and
            // a candidate passing the stale gate re-checks fresh values.
            let thr_stale = shared.threshold_time();
            let bud_stale = &mut scratch.bud;
            bud_stale.clear();
            bud_stale.extend((0..bounds.bound.len()).map(|s| shared.budget_best_time(s)));
            // Fused evaluation pass. Candidates arrive in sorted-superset
            // order — family-major (the sort key leads with the family
            // byte), budget slots non-decreasing within a family — so equal
            // slots form runs: hoist the bounds per run and compact the
            // surviving row indices branch-free (unconditional index/time
            // store, length bumped by the keep bit); the family dispatch
            // inside `comm_time_prepped` is perfectly predicted within a
            // run. The pass computes each candidate's *exact* epoch time —
            // the coefficient-reconstructed communication time costs barely
            // more than a lower bound and spares the survivor side any
            // recomputation. The static cut
            // (`time ≤ bound`, counted as dominance-pruned) is deterministic:
            // the bound is fixed before the scan and the time is exact,
            // and a candidate above it is provably outside the top-k and
            // every budget slot it is admissible for (the `StaticBounds`
            // argument).
            //
            // The pass folds in a second, *dynamic* cut at the same cost:
            // a time above both stale snapshots can neither improve its
            // budget slot nor enter the top-k (the shared values only
            // decrease), exactly the skip the finishing pass's gate would
            // take. Only the static cut is counted as dominance-pruned —
            // the dynamic cut depends on scan order, so folding it into
            // the counter would break the counter's determinism.
            let mut i = lo;
            let mut n = 0usize;
            let mut pruned = 0usize;
            while i < hi {
                let slot = slots[i];
                let mut j = i;
                while j < hi && slots[j] == slot {
                    j += 1;
                }
                let b = bounds.bound[slot as usize];
                let dyn_b = bud_stale[slot as usize].max(thr_stale).min(b);
                let mut kept = 0usize;
                for x in i..j {
                    let time = lbs[x]
                        + engine.comm_time_prepped(fams[x], &coef[sup[x] as usize], || cands[x]);
                    kept += (time <= b) as usize;
                    surv[n] = x as u32;
                    tims[n] = time;
                    n += (time <= dyn_b) as usize;
                }
                pruned += (j - i) - kept;
                i = j;
            }
            if pruned > 0 {
                shared.count_dominance_pruned(pruned);
            }
            // Finishing pass over survivors. The scalar time is
            // bit-identical to `estimate_with_memory(..).epoch_time()` (the
            // lower bound *is* the compute sum and `total()` adds
            // communication last), so the improves/threshold decisions
            // match a full estimate's; the full estimate is assembled only
            // when needed.
            for (pos, &xu) in surv[..n].iter().enumerate() {
                let x = xu as usize;
                let idx = slots[x] as usize;
                let time = tims[pos];
                if time > bud_stale[idx] && time > thr_stale {
                    continue;
                }
                let improves_budget = time <= shared.budget_best_time(idx);
                if !improves_budget && time > shared.threshold_time() {
                    continue;
                }
                // Lazy estimate assembly: the budget-winner and top-k
                // decisions both order by (epoch time, strategy sort key)
                // alone — `candidate_cmp` and the heap's `HeapEntry` agree
                // on that — so the full estimate is built only when this
                // candidate actually displaces a winner slot or enters the
                // heap, not for every gate survivor.
                let strategy = cands[x];
                let build = || {
                    let cost = engine.estimate_with_memory(strategy, mems[x]);
                    debug_assert_eq!(
                        time.to_bits(),
                        cost.epoch_time().to_bits(),
                        "scalar kernel time diverged from the full estimate for {strategy}",
                    );
                    RankedCandidate {
                        strategy,
                        projection: Projection {
                            cost,
                            fits_memory: true,
                            within_scaling_limit: true,
                        },
                    }
                };
                if improves_budget {
                    shared.record_budget(idx, time);
                    bud_stale[idx] = bud_stale[idx].min(time);
                    let mut slot = winners[idx].lock().expect("winner slot poisoned");
                    let better = slot
                        .map(|cur| {
                            (time.to_bits(), strategy_sort_key(&strategy))
                                < (cur.epoch_time().to_bits(), strategy_sort_key(&cur.strategy))
                        })
                        .unwrap_or(true);
                    if better {
                        let c = build();
                        debug_assert!(slot
                            .map(|cur| candidate_cmp(&c, &cur) == std::cmp::Ordering::Less)
                            .unwrap_or(true));
                        *slot = Some(c);
                        drop(slot);
                        shared.offer_topk(&c);
                    } else {
                        drop(slot);
                        shared.offer_topk_lazy(time, &strategy, build);
                    }
                } else {
                    shared.offer_topk_lazy(time, &strategy, build);
                }
            }
        });
        return;
    }
    // Full-ranking mode: every memory-feasible candidate is a survivor
    // (no bound may drop anything), so the work is pure costing — chain
    // each candidate off its predecessor through the incremental delta
    // path, and batch survivors through the per-worker scratch to keep
    // lock traffic at one append per chunk.
    SCRATCH.with(|tls| {
        let scratch = &mut *tls.borrow_mut();
        scratch.found.clear();
        let mut prev: Option<CostEstimate> = None;
        for x in lo..hi {
            let strategy = cands[x];
            let cost = match prev.as_ref() {
                Some(p) => engine.estimate_delta_with_memory(p, strategy, mems[x]),
                None => engine.estimate_with_memory(strategy, mems[x]),
            };
            prev = Some(cost);
            scratch.found.push(RankedCandidate {
                strategy,
                projection: Projection { cost, fits_memory: true, within_scaling_limit: true },
            });
        }
        if !scratch.found.is_empty() {
            found.lock().expect("kernel survivor accumulator poisoned").append(&mut scratch.found);
        }
    });
}
