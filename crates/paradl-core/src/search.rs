//! Exhaustive strategy search (the oracle's "suggest the best strategy"
//! role, paper §4.1, scaled up from a powers-of-two sweep of each family to
//! the full candidate space).
//!
//! [`StrategySpace`] enumerates every concrete strategy candidate that
//! respects the user's [`Constraints`] and the model's scaling limits
//! (Table 3): data, spatial (with every divisibility-based
//! [`SpatialSplit`] factorization), filter, channel, pipeline (crossed with
//! the micro-batch segment counts) and the data+filter / data+spatial
//! hybrids. PE counts sweep powers of two by default, or every admissible
//! integer with [`crate::oracle::PeSweep::Exhaustive`]. Validation and limit
//! checks go through the precomputed [`ModelLimits`] table, so enumerating a
//! candidate is `O(1)` in the model depth.
//!
//! [`Oracle::search`] ranks the space as a one-cell
//! [`crate::grid::GridSweep`] on the oracle's cached engine: candidates are
//! memory-pruned before costing, and — when [`Constraints::top_k`] is set —
//! the analytic kernel ([`crate::kernel`]) drops statically dominated
//! candidates and each chunk of the scan returns only its own `k` best and
//! per-budget winners, so only those are costed in full and sorted. The
//! result is a ranked [`SearchReport`].
//! [`Oracle::search_reference`] is the original per-layer path, kept as the
//! independent reference the tests compare the kernel against.

use crate::calibrate::Calibration;
use crate::compute::ComputeModel;
use crate::cost::estimate_with_memory;
use crate::engine::ModelLimits;
use crate::memory::memory_per_pe;
use crate::model::Model;
use crate::oracle::{Constraints, Oracle, PeSweep, Projection};
use crate::scaling::powers_of_two;
use crate::strategy::{SpatialSplit, Strategy, StrategyKind};
use rayon::prelude::*;
use std::collections::HashMap;

/// The exhaustive candidate space for one (model, batch, constraints)
/// problem. Construction enumerates and deduplicates all valid candidates;
/// the type then iterates them in a deterministic order.
#[derive(Debug, Clone)]
pub struct StrategySpace {
    candidates: Vec<Strategy>,
    next: usize,
}

/// PE counts from `lo` to `hi` inclusive under the given sweep mode.
fn pe_counts(lo: usize, hi: usize, sweep: PeSweep) -> Vec<usize> {
    match sweep {
        PeSweep::PowersOfTwo => powers_of_two(lo, hi),
        PeSweep::Exhaustive => (lo.max(1)..=hi).collect(),
    }
}

impl StrategySpace {
    /// Enumerates every candidate strategy for `model` trained with global
    /// mini-batch `batch` under `constraints`. Candidates violating a scaling
    /// limit (Table 3) or exceeding `constraints.max_pes` are never produced;
    /// memory feasibility is intentionally *not* checked here so the search
    /// can report how many candidates its memory pruning removed.
    pub fn new(model: &Model, batch: usize, constraints: &Constraints) -> Self {
        Self::with_limits(batch, constraints, &ModelLimits::of(model))
    }

    /// Like [`StrategySpace::new`], but reuses a precomputed [`ModelLimits`]
    /// table (e.g. the one inside a [`CostEngine`](crate::engine::CostEngine))
    /// so every candidate is validated in `O(1)`.
    ///
    /// Emits candidates directly in enumeration-key order, with no
    /// global sort: the non-hybrid families already enumerate in key order
    /// (family-major, PE count ascending, family parameters ascending), and
    /// the data+filter / data+spatial hybrids are generated total-PE-major
    /// from a divisor sieve (exhaustive sweep) or a small sorted cross
    /// product (powers-of-two sweep). The paper-scale exhaustive spaces are
    /// hybrid-dominated, so skipping the multi-million-candidate sort is one
    /// of the kernel's enumeration wins. Equivalence with the plain nested
    /// loops is pinned by the sieve test against a sort-based reference
    /// enumerator.
    pub fn with_limits(batch: usize, constraints: &Constraints, limits: &ModelLimits) -> Self {
        let mut candidates = Vec::new();
        Self::fill(batch, constraints, limits, &mut candidates);
        StrategySpace { candidates, next: 0 }
    }

    /// The enumeration behind [`StrategySpace::with_limits`], written into
    /// `candidates` (cleared first) so a caller that enumerates again can
    /// keep the buffer's capacity.
    pub(crate) fn fill(
        batch: usize,
        constraints: &Constraints,
        limits: &ModelLimits,
        candidates: &mut Vec<Strategy>,
    ) {
        let max_pes = constraints.max_pes.max(1);
        let sweep = constraints.sweep;
        candidates.clear();
        let mut push = |s: Strategy| {
            if s.total_pes() <= max_pes && limits.is_valid(s, batch) {
                candidates.push(s);
            }
        };

        push(Strategy::Serial);

        for p in pe_counts(1, max_pes.min(batch), sweep) {
            push(Strategy::Data { p });
        }

        // Divisibility table: all valid factorizations per spatial PE count,
        // computed once and shared between the pure-spatial and data+spatial
        // enumerations.
        let spatial_caps = &limits.min_spatial_extents;
        let mut split_memo: HashMap<usize, Vec<SpatialSplit>> = HashMap::new();

        for p in pe_counts(2, max_pes.min(limits.min_spatial_size), sweep) {
            let splits =
                split_memo.entry(p).or_insert_with(|| spatial_factorizations(p, spatial_caps));
            for &split in splits.iter() {
                push(Strategy::Spatial { split });
            }
        }

        for p in pe_counts(2, max_pes.min(limits.min_filters), sweep) {
            push(Strategy::Filter { p });
        }

        for p in pe_counts(2, max_pes.min(limits.min_channels_after_first), sweep) {
            push(Strategy::Channel { p });
        }

        let seg_cap = constraints.pipeline_segments.max(1).min(batch);
        for p in pe_counts(2, max_pes.min(limits.num_layers), sweep) {
            for segments in pe_counts(1, seg_cap, sweep) {
                push(Strategy::Pipeline { p, segments });
            }
        }

        match sweep {
            PeSweep::Exhaustive => {
                // Total-major hybrid enumeration from a divisor sieve: for
                // every total `T = p1·p2`, the admissible group sizes `p2`
                // are exactly the divisors of `T` within the family's
                // scaling limit. Iterating divisors descending makes `p1 =
                // T/p2` ascend, which is the tie-break order of
                // `strategy_sort_key` — so the emission is sorted without
                // comparing a single key.
                let sieve = DivisorSieve::build(
                    max_pes.min(
                        batch
                            .saturating_mul(limits.min_filters.max(limits.min_spatial_size))
                            .max(1),
                    ),
                    limits.min_filters.max(limits.min_spatial_size),
                );
                for t in 2..=sieve.tmax {
                    for &d in sieve.divisors(t).iter().rev() {
                        let p2 = d as usize;
                        if p2 > limits.min_filters {
                            continue;
                        }
                        let p1 = t / p2;
                        if p1 > batch {
                            break; // p1 ascends as the divisor descends
                        }
                        push(Strategy::DataFilter { p1, p2 });
                    }
                }
                for t in 2..=sieve.tmax {
                    for &d in sieve.divisors(t).iter().rev() {
                        let p2 = d as usize;
                        if p2 > limits.min_spatial_size {
                            continue;
                        }
                        let p1 = t / p2;
                        if p1 > batch {
                            break;
                        }
                        let splits = split_memo
                            .entry(p2)
                            .or_insert_with(|| spatial_factorizations(p2, spatial_caps));
                        for &split in splits.iter() {
                            push(Strategy::DataSpatial { p1, split });
                        }
                    }
                }
            }
            PeSweep::PowersOfTwo => {
                // The powers-of-two cross products are tiny (log² many
                // pairs), so generating them unsorted and sorting per family
                // is cheaper than building a sieve.
                let mut tail: Vec<Strategy> = Vec::new();
                let filter_counts = pe_counts(2, limits.min_filters, sweep);
                let spatial_counts = pe_counts(2, limits.min_spatial_size, sweep);
                for p1 in pe_counts(1, batch, sweep) {
                    for &p2 in &filter_counts {
                        // Saturating: huge hostile batches must break out,
                        // not overflow.
                        if p1.saturating_mul(p2) > max_pes {
                            break; // PE counts are ascending
                        }
                        tail.push(Strategy::DataFilter { p1, p2 });
                    }
                    for &p2 in &spatial_counts {
                        if p1.saturating_mul(p2) > max_pes {
                            break;
                        }
                        let splits = split_memo
                            .entry(p2)
                            .or_insert_with(|| spatial_factorizations(p2, spatial_caps));
                        for &split in splits.iter() {
                            tail.push(Strategy::DataSpatial { p1, split });
                        }
                    }
                }
                tail.sort_by_key(strategy_sort_key);
                for s in tail {
                    push(s);
                }
            }
        }

        debug_assert!(
            candidates.windows(2).all(|w| strategy_sort_key(&w[0]) < strategy_sort_key(&w[1])),
            "sieve enumeration must emit strictly increasing sort keys"
        );
    }

    /// The straightforward nested-loop enumeration [`StrategySpace::with_limits`]
    /// replaced: generate every family's cross product, then globally
    /// sort + dedup by [`strategy_sort_key`]. Kept as the reference the
    /// sieve-based enumerator is tested against.
    #[cfg(test)]
    pub(crate) fn with_limits_reference(
        batch: usize,
        constraints: &Constraints,
        limits: &ModelLimits,
    ) -> Self {
        let max_pes = constraints.max_pes.max(1);
        let sweep = constraints.sweep;
        let mut candidates: Vec<Strategy> = Vec::new();
        let mut push = |s: Strategy| {
            if s.total_pes() <= max_pes && limits.is_valid(s, batch) {
                candidates.push(s);
            }
        };

        push(Strategy::Serial);
        for p in pe_counts(1, max_pes.min(batch), sweep) {
            push(Strategy::Data { p });
        }
        let spatial_caps = &limits.min_spatial_extents;
        let mut split_memo: HashMap<usize, Vec<SpatialSplit>> = HashMap::new();
        for p in pe_counts(2, max_pes.min(limits.min_spatial_size), sweep) {
            let splits =
                split_memo.entry(p).or_insert_with(|| spatial_factorizations(p, spatial_caps));
            for &split in splits.iter() {
                push(Strategy::Spatial { split });
            }
        }
        for p in pe_counts(2, max_pes.min(limits.min_filters), sweep) {
            push(Strategy::Filter { p });
        }
        for p in pe_counts(2, max_pes.min(limits.min_channels_after_first), sweep) {
            push(Strategy::Channel { p });
        }
        let seg_cap = constraints.pipeline_segments.max(1).min(batch);
        for p in pe_counts(2, max_pes.min(limits.num_layers), sweep) {
            for segments in pe_counts(1, seg_cap, sweep) {
                push(Strategy::Pipeline { p, segments });
            }
        }
        let filter_counts = pe_counts(2, limits.min_filters, sweep);
        let spatial_counts = pe_counts(2, limits.min_spatial_size, sweep);
        for p1 in pe_counts(1, batch, sweep) {
            for &p2 in &filter_counts {
                if p1.saturating_mul(p2) > max_pes {
                    break;
                }
                push(Strategy::DataFilter { p1, p2 });
            }
            for &p2 in &spatial_counts {
                if p1.saturating_mul(p2) > max_pes {
                    break;
                }
                let splits = split_memo
                    .entry(p2)
                    .or_insert_with(|| spatial_factorizations(p2, spatial_caps));
                for &split in splits.iter() {
                    push(Strategy::DataSpatial { p1, split });
                }
            }
        }

        // The sort key is injective on candidates, so sorting makes any
        // duplicates adjacent and `dedup` removes them.
        candidates.sort_by_key(strategy_sort_key);
        candidates.dedup();
        StrategySpace { candidates, next: 0 }
    }

    /// Number of candidates **remaining** (not yet yielded by the iterator).
    /// On a freshly constructed space this is the total candidate count;
    /// it decreases as the iterator advances, consistently with
    /// [`StrategySpace::as_slice`] and [`ExactSizeIterator`].
    pub fn len(&self) -> usize {
        self.candidates.len() - self.next.min(self.candidates.len())
    }

    /// Whether no candidates remain (a fresh space never is empty: `Serial`
    /// always qualifies).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The remaining candidates as a slice, without consuming the iterator.
    pub fn as_slice(&self) -> &[Strategy] {
        &self.candidates[self.next.min(self.candidates.len())..]
    }

    /// Consumes the space, returning the remaining candidates in its own
    /// buffer (only the consumed prefix is removed).
    pub fn into_vec(mut self) -> Vec<Strategy> {
        self.candidates.drain(..self.next.min(self.candidates.len()));
        self.candidates
    }
}

impl Iterator for StrategySpace {
    type Item = Strategy;

    fn next(&mut self) -> Option<Strategy> {
        let item = self.candidates.get(self.next).copied();
        self.next += 1;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.len();
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for StrategySpace {}

/// Deterministic enumeration order: by strategy family, then PE count, then
/// the family-specific parameters. Injective on valid candidates (the
/// omitted parameters are implied by the included ones), which is what lets
/// the enumerator deduplicate with sort+dedup.
pub(crate) fn strategy_sort_key(s: &Strategy) -> (u8, usize, usize, usize, usize) {
    let family = match s.kind() {
        StrategyKind::Serial => 0,
        StrategyKind::Data => 1,
        StrategyKind::Spatial => 2,
        StrategyKind::Filter => 3,
        StrategyKind::Channel => 4,
        StrategyKind::Pipeline => 5,
        StrategyKind::DataFilter => 6,
        StrategyKind::DataSpatial => 7,
    };
    let (a, b, c) = match *s {
        Strategy::Spatial { split } => (split.pw, split.ph, split.pd),
        Strategy::Pipeline { segments, .. } => (segments, 0, 0),
        Strategy::DataFilter { p1, p2 } => (p1, p2, 0),
        Strategy::DataSpatial { p1, split } => (p1, split.pw, split.ph),
        _ => (0, 0, 0),
    };
    (family, s.total_pes(), a, b, c)
}

/// All ordered factorizations of `p` into 2 or 3 spatial split factors
/// (`p = pw·ph` or `p = pw·ph·pd`, rank = `caps.len()`), keeping only those
/// where every factor fits its dimension: splitting a dimension into more
/// parts than its smallest extent (`caps`, see
/// [`Model::min_spatial_extents`]) is physically impossible even when the
/// *total* stays within `min_spatial_size`.
fn spatial_factorizations(p: usize, caps: &[usize]) -> Vec<SpatialSplit> {
    let cap = |dim: usize| caps.get(dim).copied().unwrap_or(1);
    let mut out = Vec::new();
    if caps.len() >= 3 {
        for pw in divisors(p) {
            let rest = p / pw;
            for ph in divisors(rest) {
                let pd = rest / ph;
                if pw <= cap(0) && ph <= cap(1) && pd <= cap(2) {
                    out.push(SpatialSplit { pw, ph, pd });
                }
            }
        }
    } else {
        for pw in divisors(p) {
            let ph = p / pw;
            if pw <= cap(0) && ph <= cap(1) {
                out.push(SpatialSplit { pw, ph, pd: 1 });
            }
        }
    }
    out
}

fn divisors(p: usize) -> Vec<usize> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= p {
        if p.is_multiple_of(d) {
            small.push(d);
            if d * d != p {
                large.push(p / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// A harmonic divisor sieve in CSR layout: for every total `2 ≤ T ≤ tmax`,
/// the divisors of `T` in `[2, dmax]`, ascending. Building costs
/// `Σ_{d ≤ dmax} tmax/d = O(tmax · ln dmax)` — proportional to the hybrid
/// candidate count it drives, so the total-major enumeration stays linear in
/// its output.
struct DivisorSieve {
    /// Largest total covered.
    tmax: usize,
    /// CSR row offsets: row `T`'s divisors live at `data[off[T]..off[T+1]]`.
    off: Vec<u32>,
    /// Concatenated divisor lists (each ascending).
    data: Vec<u32>,
}

impl DivisorSieve {
    fn build(tmax: usize, dmax: usize) -> Self {
        let dmax = dmax.min(tmax);
        let n = tmax + 1;
        let mut off = vec![0u32; n + 1];
        for d in 2..=dmax {
            let mut t = d;
            while t <= tmax {
                off[t + 1] += 1;
                t += d;
            }
        }
        for i in 1..=n {
            off[i] += off[i - 1];
        }
        let mut cursor: Vec<u32> = off[..n].to_vec();
        let mut data = vec![0u32; off[n] as usize];
        // Outer loop ascending in `d` ⇒ each row fills in ascending order.
        for d in 2..=dmax {
            let mut t = d;
            while t <= tmax {
                data[cursor[t] as usize] = d as u32;
                cursor[t] += 1;
                t += d;
            }
        }
        DivisorSieve { tmax, off, data }
    }

    fn divisors(&self, t: usize) -> &[u32] {
        &self.data[self.off[t] as usize..self.off[t + 1] as usize]
    }
}

/// One evaluated candidate in a [`SearchReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedCandidate {
    /// The concrete strategy.
    pub strategy: Strategy,
    /// Its full projection (per-phase cost breakdown + memory).
    pub projection: Projection,
}

impl RankedCandidate {
    /// Projected epoch time of this candidate, the ranking key.
    pub fn epoch_time(&self) -> f64 {
        self.projection.cost.epoch_time()
    }
}

/// Full ranking order: epoch time, ties broken by the deterministic
/// enumeration key.
pub(crate) fn candidate_cmp(a: &RankedCandidate, b: &RankedCandidate) -> std::cmp::Ordering {
    a.epoch_time()
        .total_cmp(&b.epoch_time())
        .then_with(|| strategy_sort_key(&a.strategy).cmp(&strategy_sort_key(&b.strategy)))
}

/// The best candidate within one PE budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetWinner {
    /// The PE budget (candidates use at most this many PEs).
    pub max_pes: usize,
    /// The fastest feasible candidate within the budget.
    pub candidate: RankedCandidate,
}

/// The result of an exhaustive strategy search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Number of candidates the [`StrategySpace`] enumerated.
    pub enumerated: usize,
    /// Candidates discarded by the memory-capacity check before costing.
    pub pruned_by_memory: usize,
    /// Candidates skipped by dynamic branch-and-bound pruning. Always 0: the
    /// analytic kernel ([`crate::kernel`]) prunes statically and counts in
    /// `pruned_by_dominance` instead. Kept so reports keep their shape.
    pub pruned_by_bound: usize,
    /// Candidates discarded by the kernel's static dominance bound before
    /// their estimate is assembled: their exact epoch time provably exceeds
    /// what an already-known candidate achieves at every PE budget they
    /// belong to (see the [`crate::kernel`] module docs). The count is
    /// **deterministic**: the bound is fixed before the scan starts and the
    /// per-chunk counts are accumulated commutatively, so any evaluation
    /// order produces the same number. Always 0 without
    /// [`Constraints::top_k`] and on [`Oracle::search_reference`].
    pub pruned_by_dominance: usize,
    /// The costed candidates, fastest first (deterministic order): every
    /// feasible candidate when [`Constraints::top_k`] is `None`, otherwise
    /// the `k` best.
    pub ranked: Vec<RankedCandidate>,
    /// The fastest candidate within each power-of-two PE budget
    /// `1, 2, 4, …, constraints.max_pes`, ascending — tracked independently
    /// of `top_k`, so small-budget winners are reported even when they rank
    /// outside the global top-k. Budgets smaller than the smallest feasible
    /// candidate's PE count are omitted (don't index this positionally); a
    /// budget where nothing better fits repeats the previous budget's winner.
    pub best_per_budget: Vec<BudgetWinner>,
}

impl SearchReport {
    /// The overall winner: the fastest feasible candidate, if any survived
    /// the memory pruning.
    pub fn best(&self) -> Option<&RankedCandidate> {
        self.ranked.first()
    }

    /// Number of candidates that were actually costed.
    pub fn evaluated(&self) -> usize {
        self.enumerated - self.pruned_by_memory - self.pruned_by_bound - self.pruned_by_dominance
    }

    /// Total candidates discarded before costing, by any pruning stage.
    pub fn pruned(&self) -> usize {
        self.pruned_by_memory + self.pruned_by_bound + self.pruned_by_dominance
    }

    /// The `n` fastest ranked candidates (fewer when the ranking is
    /// shorter) — the winners a validation harness replays against
    /// measurements (see `paradl_core::validate`).
    pub fn top(&self, n: usize) -> &[RankedCandidate] {
        &self.ranked[..n.min(self.ranked.len())]
    }

    /// The report with `calibration` applied to every projection: rescaled
    /// estimates, re-sorted by *calibrated* epoch time (stable, so
    /// calibrated ties keep the engine's deterministic order). The
    /// candidate set itself is the uncalibrated search's — under
    /// [`Constraints::top_k`] a candidate outside the uncalibrated top-k
    /// stays outside; a full ranking has no such truncation. The per-budget
    /// winners keep their (uncalibrated-winner) identity with rescaled
    /// projections.
    pub fn recalibrated(mut self, calibration: &Calibration) -> SearchReport {
        let budget_winners = self.best_per_budget.iter_mut().map(|w| &mut w.candidate);
        for candidate in self.ranked.iter_mut().chain(budget_winners) {
            candidate.projection.cost = calibration.apply_estimate(&candidate.projection.cost);
        }
        self.ranked.sort_by(|a, b| a.epoch_time().total_cmp(&b.epoch_time()));
        self
    }
}

/// Budget index of a PE count: the smallest `i` with `2^i ≥ p`.
pub(crate) fn budget_index(pes: usize) -> usize {
    pes.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Builds a cell's report from its costed candidates, given in any order:
/// ranks them by [`candidate_cmp`], takes the first fit of every
/// power-of-two PE budget, and keeps the [`Constraints::top_k`] best (all
/// of them without `top_k`). The order is total, so the report does not
/// depend on the order the candidates arrive in. In top-k mode the
/// candidates only need to include every row of the final top-k and every
/// budget winner, which is what the kernel's chunks return.
pub(crate) fn finish_report(
    enumerated: usize,
    pruned_by_memory: usize,
    pruned_by_dominance: usize,
    mut ranked: Vec<RankedCandidate>,
    constraints: &Constraints,
) -> SearchReport {
    ranked.sort_by(candidate_cmp);
    let best_per_budget = powers_of_two(1, constraints.max_pes.max(1))
        .into_iter()
        .filter_map(|budget| {
            let winner = ranked.iter().find(|c| c.strategy.total_pes() <= budget)?;
            Some(BudgetWinner { max_pes: budget, candidate: *winner })
        })
        .collect();
    if let Some(k) = constraints.top_k {
        ranked.truncate(k);
    }
    SearchReport {
        enumerated,
        pruned_by_memory,
        pruned_by_bound: 0,
        pruned_by_dominance,
        ranked,
        best_per_budget,
    }
}

impl<C: ComputeModel + ?Sized + Sync> Oracle<'_, C> {
    /// The exhaustive candidate space for this oracle's problem under
    /// `constraints`.
    pub fn strategy_space(&self, constraints: &Constraints) -> StrategySpace {
        StrategySpace::new(self.model, self.config.batch_size, constraints)
    }

    /// Exhaustive strategy search: the candidate space ranked by the
    /// analytic kernel, run as a one-cell [`crate::grid::GridSweep`] on
    /// this oracle's cached engine (parallel across cores with rayon).
    /// Memory-infeasible candidates are pruned before costing; with
    /// [`Constraints::top_k`] set, only the `k` best are kept (a bounded
    /// heap per chunk) and statically dominated candidates are skipped.
    /// Deterministic, and equal up to floating-point reassociation to
    /// [`Oracle::search_reference`].
    ///
    /// Delegates to [`Oracle::answer`] with a ranked-mode
    /// [`crate::query::Query`] (the canonical entry point); the oracle's
    /// cached engine makes repeated calls cheap.
    ///
    /// # Panics
    ///
    /// Panics if the engine refuses to build for a degenerate problem; use
    /// [`Oracle::answer`] for the fallible path.
    pub fn search(&self, constraints: &Constraints) -> SearchReport {
        let query = crate::query::Query {
            mode: match constraints.top_k {
                Some(k) => crate::query::QueryMode::TopK(k),
                None => crate::query::QueryMode::FullRank,
            },
            constraints: *constraints,
            ..crate::query::Query::default()
        };
        match self.answer(&query).expect("oracle engine build failed") {
            crate::query::QueryAnswer::Ranked(report) => report,
            _ => unreachable!("ranked query modes always produce ranked answers"),
        }
    }

    /// The original (pre-engine) search path: every candidate re-walks the
    /// model through [`crate::cost::estimate_with_memory`], every feasible
    /// candidate is ranked, and nothing is pruned but memory
    /// ([`Constraints::top_k`] is ignored). Kept as the independent reference
    /// the kernel is tested against and as the baseline of the
    /// `paradl-bench` `engine` benchmark.
    pub fn search_reference(&self, constraints: &Constraints) -> SearchReport {
        let candidates = self.strategy_space(constraints).into_vec();
        let ranked: Vec<RankedCandidate> = candidates
            .par_iter()
            .filter_map(|&strategy| self.evaluate_reference(strategy, constraints))
            .collect();
        let pruned_by_memory = candidates.len() - ranked.len();
        let constraints = Constraints { top_k: None, ..*constraints };
        finish_report(candidates.len(), pruned_by_memory, 0, ranked, &constraints)
    }

    /// Memory-prunes then costs one candidate through the reference
    /// (per-layer) cost model.
    fn evaluate_reference(
        &self,
        strategy: Strategy,
        constraints: &Constraints,
    ) -> Option<RankedCandidate> {
        let mem = memory_per_pe(self.model, &self.config, strategy);
        if mem > constraints.memory_capacity_bytes {
            return None;
        }
        let cost = estimate_with_memory(
            self.model,
            self.device,
            self.cluster,
            &self.config,
            strategy,
            mem,
        );
        let projection = Projection { cost, fits_memory: true, within_scaling_limit: true };
        Some(RankedCandidate { strategy, projection })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::compute::DeviceProfile;
    use crate::config::TrainingConfig;
    use crate::layer::Layer;

    fn model() -> Model {
        Model::new(
            "m",
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 64, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 64, (32, 32), 2, 2),
                Layer::conv2d("c2", 64, 128, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 128, &[16, 16]),
                Layer::fully_connected("fc", 128, 10),
            ],
        )
    }

    fn constraints() -> Constraints {
        Constraints { max_pes: 256, ..Constraints::default() }
    }

    fn oracle_parts() -> (Model, DeviceProfile, ClusterSpec, TrainingConfig) {
        (
            model(),
            DeviceProfile::v100(),
            ClusterSpec::paper_system(),
            TrainingConfig::small(8192, 64),
        )
    }

    #[test]
    fn space_covers_all_strategy_kinds() {
        let m = model();
        let space = StrategySpace::new(&m, 64, &constraints());
        let kinds: std::collections::HashSet<StrategyKind> =
            space.clone().map(|s| s.kind()).collect();
        for kind in StrategyKind::ALL {
            assert!(kinds.contains(&kind), "missing {kind} candidates");
        }
    }

    #[test]
    fn space_candidates_respect_limits_and_are_unique() {
        let m = model();
        let c = constraints();
        let space = StrategySpace::new(&m, 64, &c);
        let all: Vec<Strategy> = space.clone().collect();
        assert_eq!(all.len(), space.len());
        let unique: std::collections::HashSet<&Strategy> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "duplicate candidates");
        for s in &all {
            assert!(s.total_pes() <= c.max_pes, "{s} exceeds max_pes");
            assert!(s.validate(&m, 64).is_ok(), "{s} violates a scaling limit");
        }
    }

    #[test]
    fn len_reports_remaining_candidates() {
        let m = model();
        let mut space = StrategySpace::new(&m, 64, &constraints());
        let total = space.len();
        assert!(total > 2);
        assert_eq!(space.as_slice().len(), total);
        space.next();
        space.next();
        assert_eq!(space.len(), total - 2, "len must track the iterator");
        assert_eq!(space.as_slice().len(), total - 2);
        assert_eq!(space.clone().count(), total - 2);
        assert_eq!(space.clone().into_vec().len(), total - 2);
        // ExactSizeIterator agrees with the explicit len.
        let drained: Vec<Strategy> = space.by_ref().collect();
        assert_eq!(drained.len(), total - 2);
        assert!(space.is_empty());
        assert_eq!(space.len(), 0);
    }

    #[test]
    fn into_vec_returns_the_remaining_candidates_in_order() {
        let m = model();
        let space = StrategySpace::new(&m, 64, &constraints());
        let all = space.as_slice().to_vec();
        // Nothing consumed: the space hands over its own buffer.
        let buffer = space.as_slice().as_ptr();
        let whole = space.into_vec();
        assert_eq!(whole.as_ptr(), buffer, "an unconsumed space must not copy");
        assert_eq!(whole, all);
        for consumed in [1, 3, all.len() - 1, all.len()] {
            let mut space = StrategySpace::new(&m, 64, &constraints());
            space.by_ref().take(consumed).for_each(drop);
            assert_eq!(space.into_vec(), all[consumed..], "after {consumed} consumed");
        }
    }

    #[test]
    fn exhaustive_sweep_enumerates_every_admissible_pe_count() {
        let m = model();
        let c = Constraints {
            max_pes: 64,
            sweep: crate::oracle::PeSweep::Exhaustive,
            ..Default::default()
        };
        let space = StrategySpace::new(&m, 48, &c);
        let data_counts: Vec<usize> = space
            .clone()
            .filter_map(|s| match s {
                Strategy::Data { p } => Some(p),
                _ => None,
            })
            .collect();
        // Every p from 1 to min(max_pes, batch) = 48 must appear.
        assert_eq!(data_counts, (1..=48).collect::<Vec<_>>());
        // The power-of-two space is a strict subset.
        let pow2 = StrategySpace::new(&m, 48, &Constraints { max_pes: 64, ..Default::default() });
        let dense: std::collections::HashSet<Strategy> = space.collect();
        for s in pow2 {
            assert!(dense.contains(&s), "{s} missing from the exhaustive space");
        }
    }

    #[test]
    fn spatial_candidates_enumerate_factorizations() {
        let m = model();
        let space = StrategySpace::new(&m, 64, &constraints());
        let splits: Vec<SpatialSplit> = space
            .filter_map(|s| match s {
                Strategy::Spatial { split } => Some(split),
                _ => None,
            })
            .collect();
        // p = 4 admits 1×4, 2×2, 4×1 on a 2-D model.
        let of4: Vec<&SpatialSplit> = splits.iter().filter(|s| s.total() == 4).collect();
        assert_eq!(of4.len(), 3, "{of4:?}");
    }

    #[test]
    fn sieve_enumeration_matches_reference_enumeration() {
        let m = model();
        let limits = crate::engine::ModelLimits::of(&m);
        for sweep in [crate::oracle::PeSweep::PowersOfTwo, crate::oracle::PeSweep::Exhaustive] {
            let c = Constraints {
                max_pes: 256,
                sweep,
                pipeline_segments: 16,
                ..Constraints::default()
            };
            for batch in [17usize, 48, 64, 96] {
                let fast = StrategySpace::with_limits(batch, &c, &limits).into_vec();
                let reference = StrategySpace::with_limits_reference(batch, &c, &limits).into_vec();
                assert_eq!(fast, reference, "sweep {sweep:?}, batch {batch}");
            }
        }
    }

    /// Asserts that a kernel report agrees with the per-layer reference
    /// ranking: same enumeration and memory-pruning counts, the reference's
    /// first `ranked.len()` ranks (all of them in full-ranking mode), each
    /// ranked candidate and budget winner costed the same up to 1e-9
    /// relative (the engine reassociates sums, so near-ties may swap rank
    /// positions; candidates are matched by strategy, not by rank).
    fn assert_agrees_with_reference(
        fast: &SearchReport,
        reference: &SearchReport,
        top_k: Option<usize>,
    ) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.max(b);
        assert_eq!(fast.enumerated, reference.enumerated, "enumerated");
        assert_eq!(fast.pruned_by_memory, reference.pruned_by_memory, "memory-pruned");
        let expected = top_k.map_or(reference.ranked.len(), |k| k.min(reference.ranked.len()));
        assert_eq!(fast.ranked.len(), expected, "ranked length");
        let times: HashMap<Strategy, f64> =
            reference.ranked.iter().map(|c| (c.strategy, c.epoch_time())).collect();
        for (rank, (a, b)) in fast.ranked.iter().zip(&reference.ranked).enumerate() {
            let t = times.get(&a.strategy).copied().expect("ranked candidate is feasible");
            assert!(close(a.epoch_time(), t), "{}: {} vs {t}", a.strategy, a.epoch_time());
            assert!(close(a.epoch_time(), b.epoch_time()), "rank {rank} time diverged");
        }
        assert_eq!(fast.best_per_budget.len(), reference.best_per_budget.len(), "budgets");
        for (a, b) in fast.best_per_budget.iter().zip(&reference.best_per_budget) {
            assert_eq!(a.max_pes, b.max_pes);
            let (ta, tb) = (a.candidate.epoch_time(), b.candidate.epoch_time());
            assert!(close(ta, tb), "budget {} winner: {ta} vs {tb}", a.max_pes);
        }
    }

    #[test]
    fn kernel_survives_degenerate_constraint_edges() {
        // max_pes = 1 collapses the space to Serial-only and a single
        // budget slot; a tiny memory capacity memory-prunes everything.
        // Both must flow through the kernel without over-pruning or a
        // slot-index panic.
        let (m, d, cl, cfg) = oracle_parts();
        let oracle = Oracle::new(&m, &d, &cl, cfg);
        let single = Constraints { max_pes: 1, top_k: Some(4), ..Constraints::default() };
        let report = oracle.search(&single);
        assert!(!report.ranked.is_empty(), "Serial always fits");
        assert_agrees_with_reference(&report, &oracle.search_reference(&single), Some(4));

        let tiny = Constraints {
            max_pes: 256,
            memory_capacity_bytes: 1.0,
            top_k: Some(4),
            ..Constraints::default()
        };
        let starved = oracle.search(&tiny);
        assert!(starved.ranked.is_empty(), "nothing fits in one byte");
        assert_eq!(starved.pruned_by_memory, starved.enumerated);
        assert_eq!(starved.pruned_by_dominance, 0);
        assert!(starved.best_per_budget.is_empty());
    }

    #[test]
    fn parallel_and_serial_search_agree_exactly() {
        // The parallel kernel against the independent per-layer reference,
        // full ranking.
        let (m, d, cl, cfg) = oracle_parts();
        let oracle = Oracle::new(&m, &d, &cl, cfg);
        let c = constraints();
        let report = oracle.search(&c);
        assert_agrees_with_reference(&report, &oracle.search_reference(&c), None);
        // Two parallel runs are identical, field for field.
        assert_eq!(report, oracle.search(&c));
    }

    #[test]
    fn parallel_and_serial_agree_with_pruning() {
        let (m, d, cl, cfg) = oracle_parts();
        let oracle = Oracle::new(&m, &d, &cl, cfg);
        let c = Constraints { top_k: Some(5), ..constraints() };
        let report = oracle.search(&c);
        assert_agrees_with_reference(&report, &oracle.search_reference(&c), Some(5));
        assert_eq!(report, oracle.search(&c));
    }

    #[test]
    fn top_k_matches_prefix_of_full_ranking() {
        let (m, d, cl, cfg) = oracle_parts();
        let oracle = Oracle::new(&m, &d, &cl, cfg);
        let full = oracle.search(&constraints());
        // `usize::MAX`: `k` is caller input, so nothing may size by it.
        for k in [1usize, 3, 10, usize::MAX] {
            let pruned = oracle.search(&Constraints { top_k: Some(k), ..constraints() });
            assert_eq!(pruned.enumerated, full.enumerated);
            assert_eq!(pruned.ranked.len(), k.min(full.ranked.len()));
            for (a, b) in pruned.ranked.iter().zip(&full.ranked) {
                assert_eq!(a.strategy, b.strategy, "top-{k} diverges from the full ranking");
                assert_eq!(a.projection, b.projection);
            }
            // Budget winners are tracked independently of top-k.
            assert_eq!(pruned.best_per_budget.len(), full.best_per_budget.len());
            for (a, b) in pruned.best_per_budget.iter().zip(&full.best_per_budget) {
                assert_eq!(a.max_pes, b.max_pes);
                assert_eq!(
                    a.candidate.strategy, b.candidate.strategy,
                    "budget {} winner",
                    a.max_pes
                );
            }
            // Accounting stays consistent.
            assert_eq!(pruned.evaluated() + pruned.pruned(), pruned.enumerated);
        }
    }

    #[test]
    fn engine_search_matches_reference_search() {
        let (m, d, cl, cfg) = oracle_parts();
        let oracle = Oracle::new(&m, &d, &cl, cfg);
        let c = constraints();
        let fast = oracle.search(&c);
        let slow = oracle.search_reference(&c);
        assert_eq!(fast.enumerated, slow.enumerated);
        assert_eq!(fast.pruned_by_memory, slow.pruned_by_memory);
        assert_eq!(fast.ranked.len(), slow.ranked.len());
        // Phase times agree to ~1e-9 relative; compare by candidate (the
        // engine reassociates sums, so near-ties may swap rank positions).
        let mut fast_sorted = fast.ranked.clone();
        let mut slow_sorted = slow.ranked.clone();
        fast_sorted.sort_by_key(|c| strategy_sort_key(&c.strategy));
        slow_sorted.sort_by_key(|c| strategy_sort_key(&c.strategy));
        for (a, b) in fast_sorted.iter().zip(&slow_sorted) {
            assert_eq!(a.strategy, b.strategy);
            let (ta, tb) = (a.epoch_time(), b.epoch_time());
            assert!((ta - tb).abs() <= 1e-9 * ta.max(tb), "{}: {ta} vs {tb}", a.strategy);
        }
        let (fb, sb) = (fast.best().unwrap(), slow.best().unwrap());
        let (ta, tb) = (fb.epoch_time(), sb.epoch_time());
        assert!((ta - tb).abs() <= 1e-9 * ta.max(tb), "best diverged: {ta} vs {tb}");
    }

    #[test]
    fn search_prunes_under_tight_memory() {
        let (m, d, cl, cfg) = oracle_parts();
        let oracle = Oracle::new(&m, &d, &cl, cfg);
        let tight = Constraints { memory_capacity_bytes: 1.0, max_pes: 64, ..Default::default() };
        let report = oracle.search(&tight);
        assert_eq!(report.pruned_by_memory, report.enumerated);
        assert!(report.ranked.is_empty());
        assert!(report.best().is_none());
        assert!(report.best_per_budget.is_empty());
    }

    #[test]
    fn budget_winners_are_monotone_in_budget() {
        let (m, d, cl, cfg) = oracle_parts();
        let oracle = Oracle::new(&m, &d, &cl, cfg);
        let report = oracle.search(&constraints());
        assert!(!report.best_per_budget.is_empty());
        let mut prev_time = f64::INFINITY;
        let mut prev_budget = 0;
        for winner in &report.best_per_budget {
            assert!(winner.max_pes > prev_budget);
            assert!(winner.candidate.strategy.total_pes() <= winner.max_pes);
            // A larger budget can only help (the smaller budget's winner is
            // still admissible).
            assert!(winner.candidate.epoch_time() <= prev_time + 1e-12);
            prev_budget = winner.max_pes;
            prev_time = winner.candidate.epoch_time();
        }
        // The largest budget's winner is the global winner.
        let last = report.best_per_budget.last().unwrap();
        assert_eq!(last.candidate.strategy, report.best().unwrap().strategy);
    }

    #[test]
    fn search_winner_is_at_least_as_good_as_suggest() {
        let (m, d, cl, cfg) = oracle_parts();
        let oracle = Oracle::new(&m, &d, &cl, cfg);
        let c = Constraints::default();
        let best = oracle.search(&c).best().unwrap().projection;
        let suggested = oracle.suggest(&c).unwrap();
        assert!(best.cost.epoch_time() <= suggested.cost.epoch_time() + 1e-12);
    }

    #[test]
    fn divisors_and_factorizations_are_exhaustive() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(spatial_factorizations(4, &[32, 32]).len(), 3);
        // 8 = pw·ph·pd has 10 ordered factorizations into three factors.
        assert_eq!(spatial_factorizations(8, &[64, 64, 64]).len(), 10);
        for split in spatial_factorizations(8, &[64, 64, 64]) {
            assert_eq!(split.total(), 8);
        }
    }

    #[test]
    fn factorizations_respect_per_dimension_extents() {
        // 128 = pw·ph always needs a factor > 13 on a 13×13 plane, even
        // though 128 ≤ 13·13 = 169: no candidate must survive.
        assert!(spatial_factorizations(128, &[13, 13]).is_empty());
        // 8 on a 2×16 plane: only pw ∈ {1, 2} qualify.
        let splits = spatial_factorizations(8, &[2, 16]);
        assert_eq!(splits.len(), 2, "{splits:?}");
        for split in &splits {
            assert!(split.pw <= 2 && split.ph <= 16);
        }
    }

    #[test]
    fn space_never_splits_a_dimension_beyond_its_extent() {
        // AlexNet-like asymmetry: the deepest conv plane is 13×13, so
        // min_spatial_size = 169 admits totals up to 128, but no single
        // dimension may be split more than 13 ways.
        let m = Model::new(
            "deep",
            3,
            vec![227, 227],
            vec![
                Layer::conv2d("c1", 3, 96, (227, 227), 11, 4, 0),
                Layer::conv2d("c2", 96, 256, (13, 13), 3, 1, 1),
                Layer::global_pool("g", 256, &[13, 13]),
                Layer::fully_connected("fc", 256, 10),
            ],
        );
        let caps = m.min_spatial_extents();
        assert_eq!(caps, vec![13, 13]);
        let space = StrategySpace::new(&m, 256, &Constraints::default());
        let mut saw_spatial = false;
        for s in space {
            let split = match s {
                Strategy::Spatial { split } => split,
                Strategy::DataSpatial { split, .. } => split,
                _ => continue,
            };
            saw_spatial = true;
            assert!(split.pw <= 13 && split.ph <= 13, "{s} over-splits a 13-wide dimension");
        }
        assert!(saw_spatial, "expected spatial candidates");
    }
}
