//! The resident column store: the columns a sweep computed — per-model
//! candidate supersets, per-(model, device) prep sets and per-(model,
//! cluster) communication-coefficient columns — each kept with the inputs
//! it was computed from, so that a later sweep asking for the same inputs
//! computes nothing.
//!
//! One type, [`ColumnStore`], has two owners: a
//! [`GridSweep`](crate::grid::GridSweep), whose columns are keyed in the
//! [`Scope::Grid`] scope by everything they depend on, and every
//! [`EngineCache`](crate::engine::EngineCache) entry, whose columns are
//! keyed in the [`Scope::Entry`] scope by what the entry does not confirm:
//! the dataset size, the constraints' words and the batch axis. An entry's
//! store holds one variant on one axis, admits a variant only on its second
//! group and a batch into the axis only on its second sight
//! ([`Kept::plan`]), and the stores of one cache keep at most
//! [`RESIDENT_BUDGET`] bytes together. The module docs of [`crate::grid`]
//! give the keys, the matching and the panic and busy rules.

use crate::engine::{CommCoef, CostEngine, ModelLimits};
use crate::grid::{par_fill_scheduled, PreppedSpace, Superset};
use crate::key::{ClusterKey, ConstraintsKey, MemoryKey, ModelKey};
use crate::model::Model;
use crate::oracle::Constraints;
use crate::strategy::Strategy;
use crate::vet::DEFAULT_CANDIDATE_CAP;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

/// Most batches an entry store's axis holds. A group whose batches would
/// grow the axis past it sweeps one-shot, and so does a group with more
/// distinct batches than this. The cap bounds what a stream of distinct
/// batch sizes can make one store hold: one superset at the largest batch,
/// this many prep sets and one communication column.
pub(crate) const AXIS_CAP: usize = 8;

/// Most batches an entry store remembers as asked once outside its axis
/// ([`Kept::plan`]): enough that a client cycling through several times
/// [`AXIS_CAP`] batch sizes still sees each again before it is forgotten.
const STRAYS_CAP: usize = 4 * AXIS_CAP;

/// Bytes of one candidate row of a one-batch ranked sweep's columns, at
/// most: a superset row that does not pack, a prep row (superset index,
/// lower bound, budget slot and family byte) and a communication row —
/// 40 + 14 + 32 = 86.
const ROW_BYTES: u64 = (size_of::<Strategy>() + 4 + 8 + 1 + 1 + size_of::<CommCoef>()) as u64;

/// The most bytes the column stores of one
/// [`EngineCache`](crate::engine::EngineCache) keep together: the columns a
/// one-batch ranked sweep of [`DEFAULT_CANDIDATE_CAP`] candidates (the
/// enumeration work of the largest ranked query [`crate::query::Query::vet`]
/// admits) holds while it runs, 4,000,000 × 86 bytes = 344 MB. A store's
/// keyed sweep that would leave its cache's stores above it keeps nothing,
/// so the stores never keep more than such a sweep holds while it runs.
pub(crate) const RESIDENT_BUDGET: u64 = DEFAULT_CANDIDATE_CAP * ROW_BYTES;

/// The resident columns of a sweep owner — a
/// [`GridSweep`](crate::grid::GridSweep), or an
/// [`EngineCache`](crate::engine::EngineCache) entry — with the inputs each
/// was computed from (see the module docs of [`crate::grid`] for how
/// sweeps use them). Opaque outside the crate: an entry's store comes with
/// its engine from [`EngineCache::engine`] and goes to
/// [`GridSweep::run_engine`], and a [`Default`] store starts empty.
///
/// [`EngineCache::engine`]: crate::engine::EngineCache::engine
/// [`GridSweep::run_engine`]: crate::grid::GridSweep::run_engine
#[derive(Default)]
pub struct ColumnStore {
    kept: Mutex<Kept>,
    /// Bytes of the kept columns and their records, as of the last keyed
    /// sweep on them.
    bytes: AtomicUsize,
    /// The counters of the cache the store belongs to; a sweep's own store
    /// counts nothing.
    counters: Option<Arc<StoreCounters>>,
}

impl std::fmt::Debug for ColumnStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnStore")
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Drop for ColumnStore {
    fn drop(&mut self) {
        if let Some(c) = &self.counters {
            c.resident_bytes.fetch_sub(*self.bytes.get_mut() as u64, Ordering::Relaxed);
        }
    }
}

impl ColumnStore {
    /// An empty store counting into `counters`.
    pub(crate) fn counted(counters: &Arc<StoreCounters>) -> Self {
        ColumnStore {
            kept: Mutex::default(),
            bytes: AtomicUsize::new(0),
            counters: Some(Arc::clone(counters)),
        }
    }

    /// The kept columns, or `None` while another thread sweeps with them.
    /// A poisoned lock is recovered: a column's inputs are cleared before
    /// it is refilled and recorded only once the sweep completes, so a
    /// sweep that panicked leaves no inputs on a half-filled column.
    pub(crate) fn lock(&self) -> Option<MutexGuard<'_, Kept>> {
        match self.kept.try_lock() {
            Ok(kept) => Some(kept),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Whether a sweep panicked while holding the lock.
    #[cfg(test)]
    pub(crate) fn is_poisoned(&self) -> bool {
        self.kept.is_poisoned()
    }

    /// Settles an entry store's sweep of a group: `outcome` says what the
    /// group did with the store, and `kept` (the locked columns, after a
    /// keyed sweep) gives the bytes the store now holds. Columns that would
    /// leave the cache's stores above their budget are freed, with the
    /// store's marks: the group counts as a miss, not an admission.
    pub(crate) fn settle(&self, mut outcome: Outcome, kept: Option<&mut Kept>) {
        let Some(c) = &self.counters else { return };
        if let Some(kept) = kept {
            let now = kept.buffers.bytes() as u64;
            let before = self.bytes.load(Ordering::Relaxed) as u64;
            let fits = c.resident_bytes.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |all| {
                let all = all - before + now;
                (all <= c.budget).then_some(all)
            });
            let now = if fits.is_ok() {
                now
            } else {
                kept.buffers.free();
                (kept.seen, kept.strays) = (None, Vec::new());
                c.resident_bytes.fetch_sub(before, Ordering::Relaxed);
                outcome = Outcome::Miss;
                0
            };
            self.bytes.store(now as usize, Ordering::Relaxed);
        }
        let counter = match outcome {
            Outcome::Hit => &c.hits,
            Outcome::Miss | Outcome::Admitted => &c.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if outcome == Outcome::Admitted {
            c.admissions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// What one ranked group did with its entry's store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Every column came from the store.
    Hit,
    /// A column was computed: a one-shot sweep (the variant's first group,
    /// a batch's first sight outside the axis, more batches than
    /// [`AXIS_CAP`], or a busy store), a kept variant whose axis grew, or
    /// columns over the budget.
    Miss,
    /// The variant's second group: the store starts keeping its columns.
    Admitted,
}

/// The column-store counters of an [`EngineCache`](crate::engine::EngineCache),
/// shared by the stores of its entries, and the budget of their bytes.
#[derive(Debug)]
pub(crate) struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    admissions: AtomicU64,
    resident_bytes: AtomicU64,
    budget: u64,
}

impl Default for StoreCounters {
    fn default() -> Self {
        StoreCounters::with_budget(RESIDENT_BUDGET)
    }
}

impl StoreCounters {
    /// Counters whose stores keep at most `budget` bytes together.
    pub(crate) fn with_budget(budget: u64) -> Self {
        StoreCounters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            budget,
        }
    }

    pub(crate) fn stats(&self) -> ColumnStoreStats {
        ColumnStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Cumulative counters of the column stores of an
/// [`EngineCache`](crate::engine::EngineCache)'s entries: one hit or one
/// miss per ranked group swept on an entry's store, and the bytes the
/// entries' stores hold now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnStoreStats {
    /// Groups whose every column came from the store.
    pub hits: u64,
    /// Groups that computed a column (admissions included).
    pub misses: u64,
    /// Groups that made a store start keeping their variant's columns.
    pub admissions: u64,
    /// Bytes of the columns and records the live entries' stores keep.
    pub resident_bytes: u64,
}

/// The inside of a [`ColumnStore`], held under its lock.
#[derive(Default)]
pub(crate) struct Kept {
    pub(crate) buffers: SweepBuffers,
    /// An entry store's admission mark: the variant whose last group swept
    /// one-shot. Its next group is admitted.
    seen: Option<Variant>,
    /// Batches of the kept variant that groups brought from outside its
    /// axis and swept one-shot, the latest last, at most [`STRAYS_CAP`]. A
    /// group whose batches outside the axis are all here grows it.
    strays: Vec<usize>,
}

/// What an entry store keys beyond its entry's problem, save the batch
/// axis: the dataset size and the constraints' words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Variant {
    dataset_size: usize,
    constraints: [u64; 6],
}

impl Variant {
    pub(crate) fn of(engine: &CostEngine<'_>, constraints: &Constraints) -> Self {
        Variant {
            dataset_size: engine.config().dataset_size,
            constraints: ConstraintsKey::words(constraints),
        }
    }
}

/// How an entry store sweeps one ranked group.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Plan {
    /// On buffers of the sweep's own, keying nothing.
    OneShot,
    /// On the store's columns over `axis` (sorted, distinct, a superset of
    /// the group's batches); `admitted` when the store starts keeping the
    /// variant.
    Keep { axis: Vec<usize>, admitted: bool },
}

impl Kept {
    /// How an entry store sweeps a group of `variant` at `batches`. The
    /// kept variant serves it on the kept axis if that holds every batch.
    /// A batch outside the axis sweeps one-shot on its first sight and is
    /// marked as a stray; a group whose batches outside the axis are all
    /// strays grows the axis to the sorted union, while that stays within
    /// [`AXIS_CAP`] batches (past it, such groups sweep one-shot). Another
    /// variant's first group sweeps one-shot and only marks the variant as
    /// seen; its next group is admitted, replacing the kept columns. So a
    /// problem or a batch asked once keeps nothing.
    pub(crate) fn plan(&mut self, variant: Variant, batches: &[usize]) -> Plan {
        let mut own = batches.to_vec();
        own.sort_unstable();
        own.dedup();
        match self.axis_of(&variant) {
            Some(axis) => {
                let outside: Vec<usize> =
                    own.into_iter().filter(|b| axis.binary_search(b).is_err()).collect();
                if outside.is_empty() {
                    return Plan::Keep { axis: axis.to_vec(), admitted: false };
                }
                if axis.len() + outside.len() > AXIS_CAP {
                    return Plan::OneShot;
                }
                if outside.iter().all(|b| self.strays.contains(b)) {
                    let mut union = [axis, &outside].concat();
                    union.sort_unstable();
                    self.strays.retain(|b| !outside.contains(b));
                    return Plan::Keep { axis: union, admitted: false };
                }
                for b in outside {
                    if !self.strays.contains(&b) {
                        if self.strays.len() == STRAYS_CAP {
                            self.strays.remove(0);
                        }
                        self.strays.push(b);
                    }
                }
                Plan::OneShot
            }
            None if self.seen == Some(variant) && own.len() <= AXIS_CAP => {
                self.seen = None;
                self.strays.clear();
                Plan::Keep { axis: own, admitted: true }
            }
            None => {
                self.seen = Some(variant);
                Plan::OneShot
            }
        }
    }

    /// The axis of the kept prep set, if it holds `variant`'s columns.
    fn axis_of(&self, variant: &Variant) -> Option<&[usize]> {
        let prep = self.buffers.preps.slots.first()?.inputs.as_deref()?;
        (prep.problem.is_none()
            && prep.dataset_size == variant.dataset_size
            && prep.constraints == variant.constraints)
            .then_some(&prep.batches[..])
    }
}

/// The columns of one sweep: one candidate superset per model, one prep
/// per batch for every (model, device group), and one
/// communication-coefficient column per (model, cluster) pair (none in a
/// full-ranking sweep), each list model-major, so slot `i` serves the
/// `i`-th (model, device) or (model, cluster) index of the sweep at hand.
/// A store keeps them between sweeps, each with the inputs it was computed
/// from ([`Resident`]); the next keyed sweep reuses every column whose
/// inputs it asks for again, wherever the column sat, and refills the
/// others in the buffers of the columns it no longer needs. Each stage
/// trims every column it fills to its length, so no push-growth slack
/// stays live through the later stages or between sweeps. The memory
/// bound: the kept set is exactly the last keyed sweep's columns plus their
/// records, of which only a grid-scope prep set's are not a few words — its
/// model's words, one per field ([`ModelKey::words`]), at most ≈ 90 KB for
/// the four paper models.
#[derive(Default)]
pub(crate) struct SweepBuffers {
    pub(crate) supersets: Columns<SupersetInputs, Superset>,
    pub(crate) preps: Columns<Arc<PrepInputs>, Vec<PreppedSpace>>,
    pub(crate) coefs: Columns<CoefInputs, Vec<CommCoef>>,
}

impl SweepBuffers {
    /// Frees every column and its record.
    fn free(&mut self) {
        self.supersets.slots = Vec::new();
        self.preps.slots = Vec::new();
        self.coefs.slots = Vec::new();
    }

    /// Bytes of the columns and their records.
    fn bytes(&self) -> usize {
        let supersets: usize = self.supersets.slots.iter().map(|s| s.column.bytes()).sum();
        let preps: usize = self
            .preps
            .slots
            .iter()
            .map(|s| {
                let record = s.inputs.as_deref().map_or(0, PrepInputs::bytes);
                record + s.column.iter().map(PreppedSpace::bytes).sum::<usize>()
            })
            .sum();
        let coefs = self.coefs.slots.iter();
        supersets
            + preps
            + coefs.map(|s| s.column.capacity() * size_of::<CommCoef>()).sum::<usize>()
    }
}

/// A column a store keeps between sweeps, with the inputs it was computed
/// from. `inputs` is cleared before the column is refilled and recorded
/// only at the end of the sweep, after every fill completed, so a sweep
/// that panics (its lock is recovered by the next one) never leaves inputs
/// on a half-filled column.
pub(crate) struct Resident<K, V> {
    pub(crate) inputs: Option<K>,
    pub(crate) column: V,
}

/// The inputs a resident column records (`Self`), set against what a sweep
/// asks for (`W`, which borrows the sweep's engines, so a hit copies
/// nothing).
pub(crate) trait Inputs<W> {
    /// Whether these are `want`'s inputs: the key parts first, then the
    /// values behind them, floats by their bits.
    fn is(&self, want: &W) -> bool;
}

impl<W, T: Inputs<W>> Inputs<W> for Arc<T> {
    fn is(&self, want: &W) -> bool {
        (**self).is(want)
    }
}

/// One stage's resident columns, one per slot of the last sweep.
pub(crate) struct Columns<K, V> {
    pub(crate) slots: Vec<Resident<K, V>>,
    /// Columns the stage computed over the store's lifetime (the rest were
    /// reused).
    #[cfg(test)]
    pub(crate) filled: usize,
}

impl<K, V> Default for Columns<K, V> {
    fn default() -> Self {
        Columns {
            slots: Vec::new(),
            #[cfg(test)]
            filled: 0,
        }
    }
}

impl<K, V> std::ops::Index<usize> for Columns<K, V> {
    type Output = V;

    fn index(&self, i: usize) -> &V {
        &self.slots[i].column
    }
}

impl<K: Send, V: Default + Send> Columns<K, V> {
    /// Lays out the stage's columns for a sweep of `n` slots, slot `i`
    /// asking for `wants[i]`, and returns the slots left to fill. A kept
    /// column whose inputs are a slot's serves it as is: columns are
    /// matched by their inputs, not by their position, so a reordered axis
    /// still hits. Every other slot takes, with its inputs cleared, the
    /// buffer of a kept column no slot matched: the one that sat in the
    /// same slot if it is free (an input changed in place, so the column
    /// refills to about its old size), else any other, else a new one. The
    /// kept columns left over are freed: the stage keeps exactly this
    /// sweep's columns. Without `wants` (a one-shot sweep, on columns of
    /// its own) nothing is matched.
    pub(crate) fn claim<W>(&mut self, n: usize, wants: Option<&[W]>) -> Vec<usize>
    where
        K: Inputs<W>,
    {
        debug_assert!(wants.is_some() || self.slots.is_empty(), "one-shot on fresh columns");
        let mut spare: Vec<Option<Resident<K, V>>> =
            std::mem::take(&mut self.slots).into_iter().map(Some).collect();
        let mut misses = Vec::new();
        for i in 0..n {
            let hit = wants.and_then(|wants| {
                spare.iter().position(|s| {
                    s.as_ref().and_then(|s| s.inputs.as_ref()).is_some_and(|k| k.is(&wants[i]))
                })
            });
            self.slots.push(match hit.and_then(|j| spare[j].take()) {
                Some(kept) => kept,
                None => {
                    misses.push(i);
                    Resident { inputs: None, column: V::default() }
                }
            });
        }
        let mut unplaced = Vec::new();
        for &i in &misses {
            match spare.get_mut(i).and_then(Option::take) {
                Some(old) => self.slots[i].column = old.column,
                None => unplaced.push(i),
            }
        }
        for (i, old) in unplaced.into_iter().zip(spare.into_iter().flatten()) {
            self.slots[i].column = old.column;
        }
        misses
    }

    /// Fills the slots `claim` left, in `order` (the costliest first, as
    /// [`par_fill_scheduled`] takes them), with `fill(slot, column)`.
    pub(crate) fn fill(&mut self, order: &[usize], fill: impl Fn(usize, &mut V) + Sync) {
        #[cfg(test)]
        {
            self.filled += order.len();
        }
        par_fill_scheduled(order, &mut self.slots, |i, slot| fill(i, &mut slot.column));
    }

    /// Records `inputs(slot)` on every column without inputs — the columns
    /// this sweep filled, once every fill has completed — and returns how
    /// many it recorded.
    pub(crate) fn record(&mut self, mut inputs: impl FnMut(usize) -> Option<K>) -> usize {
        let mut recorded = 0;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.inputs.is_none() {
                slot.inputs = inputs(i);
                recorded += 1;
            }
        }
        recorded
    }
}

/// Who confirms a sweep's problem — a model's words, its device profile,
/// `δ`/`γ` and a cluster's words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// A [`GridSweep`](crate::grid::GridSweep)'s own store: the columns
    /// record the problem. Every engine is built with
    /// [`CostEngine::new`] on its cluster's device profile, so the profile
    /// stands for the per-layer times.
    Grid,
    /// An [`EngineCache`](crate::engine::EngineCache) entry's store: the
    /// entry confirms the problem, so the columns record none of it.
    Entry,
}

/// The inputs of a model's candidate superset: its scaling limits (grid
/// scope only), the largest batch of the axis and the constraints' words
/// ([`ConstraintsKey::words`]). A sweep asks for them as it records them.
#[derive(Clone, PartialEq)]
pub(crate) struct SupersetInputs {
    limits: Option<ModelLimits>,
    max_batch: usize,
    constraints: [u64; 6],
}

impl SupersetInputs {
    /// The inputs of the superset of `engine`'s model at `max_batch`.
    pub(crate) fn of(
        scope: Scope,
        engine: &CostEngine<'_>,
        max_batch: usize,
        constraints: [u64; 6],
    ) -> Self {
        let limits = (scope == Scope::Grid).then(|| engine.limits().clone());
        SupersetInputs { limits, max_batch, constraints }
    }
}

impl Inputs<SupersetInputs> for SupersetInputs {
    fn is(&self, want: &SupersetInputs) -> bool {
        self == want
    }
}

/// What a sweep asks of one (model, device) prep set: in the grid scope
/// its problem ([`ProblemWant`]), and in both the dataset size (every
/// lower bound reads it, though [`crate::key::ProblemKey`] leaves it out),
/// the batch axis in order and the constraints' words. The superset the
/// set's rows index follows from the model, the axis and the constraints.
pub(crate) struct PrepWant<'a, 'b> {
    problem: Option<ProblemWant<'a>>,
    dataset_size: usize,
    batches: &'b [usize],
    constraints: [u64; 6],
}

/// The problem of a grid-scope prep set: the model, the device profile's
/// words and `δ`/`γ`. The model is borrowed from the grid, not from an
/// engine, so the sweep can free its engines before recording; only its
/// key is computed here, and its words are walked to confirm a hit and
/// copied into a record.
struct ProblemWant<'a> {
    model_key: ModelKey,
    model: &'a Model,
    device: [u64; 5],
    memory: [u64; 2],
}

/// The recorded inputs of a prep set (see [`PrepWant`]), a grid-scope
/// model as its key and its words ([`ModelKey::words`]); shared with the
/// communication columns computed from it.
pub(crate) struct PrepInputs {
    problem: Option<ProblemInputs>,
    dataset_size: usize,
    batches: Vec<usize>,
    constraints: [u64; 6],
}

/// The recorded problem of a grid-scope prep set (see [`ProblemWant`]).
struct ProblemInputs {
    model_key: ModelKey,
    model_words: Vec<u64>,
    device: [u64; 5],
    memory: [u64; 2],
}

impl<'a> PrepWant<'a, '_> {
    /// What the prep set of `engine`'s (model, device) asks for at the
    /// axis `batches`; `model_key` is the model's key in the grid scope,
    /// `None` in the entry scope.
    pub(crate) fn of<'b>(
        engine: &CostEngine<'a>,
        model_key: Option<ModelKey>,
        batches: &'b [usize],
        constraints: [u64; 6],
    ) -> PrepWant<'a, 'b> {
        let config = engine.config();
        PrepWant {
            problem: model_key.map(|model_key| ProblemWant {
                model_key,
                model: engine.model(),
                device: ClusterKey::device_words(&engine.cluster().device),
                memory: MemoryKey::words(config),
            }),
            dataset_size: config.dataset_size,
            batches,
            constraints,
        }
    }
}

impl Inputs<PrepWant<'_, '_>> for PrepInputs {
    fn is(&self, want: &PrepWant<'_, '_>) -> bool {
        self.dataset_size == want.dataset_size
            && self.constraints == want.constraints
            && self.batches == want.batches
            && match (&self.problem, &want.problem) {
                (None, None) => true,
                (Some(kept), Some(want)) => {
                    kept.model_key == want.model_key
                        && kept.memory == want.memory
                        && kept.device == want.device
                        && ModelKey::words_match(&kept.model_words, want.model)
                }
                _ => false,
            }
    }
}

impl PrepInputs {
    fn of(want: &PrepWant<'_, '_>) -> Self {
        PrepInputs {
            problem: want.problem.as_ref().map(|p| ProblemInputs {
                model_key: p.model_key,
                model_words: ModelKey::words(p.model),
                device: p.device,
                memory: p.memory,
            }),
            dataset_size: want.dataset_size,
            batches: want.batches.to_vec(),
            constraints: want.constraints,
        }
    }

    fn bytes(&self) -> usize {
        let words = self.problem.as_ref().map_or(0, |p| p.model_words.capacity());
        size_of::<Self>() + (words + self.batches.capacity()) * size_of::<u64>()
    }
}

/// What a sweep asks of one (model, cluster) communication column: the
/// inputs of the prep set whose rows it covers, and in the grid scope the
/// cluster's words ([`ClusterKey::words`]).
pub(crate) struct CoefWant<'w, 'a, 'b> {
    prep: &'w PrepWant<'a, 'b>,
    cluster: Option<[u64; 14]>,
}

/// The recorded inputs of a communication column (see [`CoefWant`]),
/// sharing the prep set's.
pub(crate) struct CoefInputs {
    prep: Arc<PrepInputs>,
    cluster: Option<[u64; 14]>,
}

impl Inputs<CoefWant<'_, '_, '_>> for CoefInputs {
    fn is(&self, want: &CoefWant<'_, '_, '_>) -> bool {
        self.cluster == want.cluster && self.prep.is(want.prep)
    }
}

/// What a keyed sweep asks of its columns, kept until they are complete
/// and then recorded on the columns it computed ([`Wants::record`]). It
/// borrows the grid, not the engines, so a grid sweep records after
/// freeing them: a record then never adds to a sweep's peak.
pub(crate) struct Wants<'a, 'b> {
    pub(crate) supersets: Vec<SupersetInputs>,
    pub(crate) preps: Vec<PrepWant<'a, 'b>>,
    /// Per communication column: its prep slot and, in the grid scope, the
    /// cluster's words.
    pub(crate) coefs: Vec<(usize, Option<[u64; 14]>)>,
}

impl Wants<'_, '_> {
    /// Records the inputs of every column of `buffers` that has none — the
    /// columns the sweep computed — and returns how many it recorded.
    pub(crate) fn record(self, buffers: &mut SweepBuffers) -> usize {
        let SweepBuffers { supersets, preps, coefs } = buffers;
        supersets.record(|m| Some(self.supersets[m].clone()))
            + preps.record(|i| Some(Arc::new(PrepInputs::of(&self.preps[i]))))
            + coefs.record(|i| {
                let (p, cluster) = self.coefs[i];
                Some(CoefInputs { prep: Arc::clone(preps.slots[p].inputs.as_ref()?), cluster })
            })
    }

    /// What the communication columns ask for, borrowing the prep sets'
    /// wants.
    pub(crate) fn coef_wants(&self) -> Vec<CoefWant<'_, '_, '_>> {
        self.coefs.iter().map(|&(p, cluster)| CoefWant { prep: &self.preps[p], cluster }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test column's inputs: one number, asked for as itself.
    impl Inputs<usize> for usize {
        fn is(&self, want: &usize) -> bool {
            self == want
        }
    }

    #[test]
    fn a_panicking_fill_leaves_no_inputs_on_its_columns() {
        let keys = [1usize, 2, 3, 4];
        let mut columns: Columns<usize, Vec<u32>> = Columns::default();
        let fill = |panic_at: Option<usize>| {
            move |i: usize, column: &mut Vec<u32>| {
                column.clear();
                column.push(1);
                assert_ne!(Some(i), panic_at, "fill {i} fails half-way");
                column.push(2);
            }
        };
        let order = columns.claim(keys.len(), Some(&keys));
        assert_eq!(order, [0, 1, 2, 3]);
        columns.fill(&order, fill(None));
        columns.record(|i| Some(keys[i]));
        // Two columns asked for again, two new ones: the failed run clears
        // the inputs of the columns it refills before filling them.
        let wants = [keys[1], 9, keys[3]];
        let order = columns.claim(wants.len(), Some(&wants));
        assert_eq!(order, [1]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            columns.fill(&order, fill(Some(1)))
        }));
        assert!(caught.is_err());
        assert!(columns.slots[1].inputs.is_none(), "the half-filled column has no inputs");
        for slot in columns.slots.iter().filter(|s| s.inputs.is_some()) {
            assert_eq!(slot.column, [1, 2], "a keyed column is complete");
        }
        // The next run refills the failed column and reuses the rest.
        let order = columns.claim(wants.len(), Some(&wants));
        assert_eq!(order, [1]);
        columns.fill(&order, fill(None));
        columns.record(|i| Some(wants[i]));
        assert!(columns.slots.iter().all(|s| s.inputs.is_some() && s.column == [1, 2]));
        assert!(columns.claim(wants.len(), Some(&wants)).is_empty(), "a repeat hits every column");
        assert_eq!(columns.slots.len(), wants.len(), "the kept set is the last run's columns");
    }
}
