//! Property-based equivalence tests of the amortized [`GridSweep`] against
//! per-query [`Oracle::search`] calls on fresh oracles: for *any* random
//! grid of CNNs, batch axes, clusters and constraints (with and without
//! top-k pruning, powers-of-two and exhaustive PE sweeps) and any chunk
//! size, every cell of the sweep must reproduce the per-query search byte
//! for byte — same counts, same ranking, same per-budget winners, same
//! serialized answer. Full-ranking cells are also checked against the
//! per-layer [`Oracle::search_reference`], up to floating-point
//! reassociation, and top-k cells against a full-ranking sweep at the same
//! chunk size. One chunked [`GridSweep`] runs the grid, its full-ranking
//! twin and the grid again: the resident columns must give the same
//! reports. A second property edits one input of a grid at a time on one
//! sweep and checks every report against a fresh sweep's, so no kept
//! column is ever served for inputs it was not computed from.

use paradl_core::prelude::*;
use proptest::prelude::{prop_assert, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use std::collections::HashMap;

/// A small random CNN, mirroring the generator in `proptest_engine.rs`.
fn arb_model() -> impl PropStrategy<Value = Model> {
    let spatial = prop_oneof![Just(16usize), Just(32)];
    let depth = 1usize..4;
    (spatial, depth, 4usize..32, 2usize..8).prop_map(|(s, depth, base_ch, classes)| {
        let mut layers = Vec::new();
        let mut ch = 3usize;
        let mut hw = s;
        for i in 0..depth {
            let out = base_ch * (i + 1);
            layers.push(Layer::conv2d(format!("conv{i}"), ch, out, (hw, hw), 3, 1, 1));
            if hw >= 8 {
                layers.push(Layer::pool2d(format!("pool{i}"), out, (hw, hw), 2, 2));
                hw /= 2;
            }
            ch = out;
        }
        layers.push(Layer::global_pool("gpool", ch, &[hw, hw]));
        layers.push(Layer::fully_connected("fc", ch, classes));
        Model::new("random", 3, vec![s, s], layers)
    })
}

fn arb_constraints() -> impl PropStrategy<Value = Constraints> {
    let top_k = prop_oneof![Just(None), (1usize..12).prop_map(Some)];
    let sweep = prop_oneof![Just(PeSweep::PowersOfTwo), Just(PeSweep::Exhaustive)];
    (top_k, sweep, 4usize..9, 2usize..12).prop_map(|(top_k, sweep, log_pes, segments)| {
        Constraints {
            max_pes: 1 << log_pes,
            top_k,
            sweep,
            pipeline_segments: segments,
            ..Constraints::default()
        }
    })
}

/// A random batch axis: 2–3 mixed power-of-two / odd batch sizes.
fn arb_batches() -> impl PropStrategy<Value = Vec<usize>> {
    let entry = || (3usize..8, 0usize..4);
    (entry(), entry(), entry(), 2usize..4).prop_map(|(a, b, c, len)| {
        [a, b, c].iter().take(len).map(|&(log, off)| (1usize << log) + off).collect()
    })
}

/// The per-layer reference agrees with a full-ranking kernel report: same
/// counts, and every ranked candidate costed the same up to 1e-9 relative
/// (candidates matched by strategy; near-ties may swap rank positions).
fn agrees_with_reference(fast: &SearchReport, reference: &SearchReport) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.max(b);
    let times: HashMap<Strategy, f64> =
        reference.ranked.iter().map(|c| (c.strategy, c.epoch_time())).collect();
    fast.enumerated == reference.enumerated
        && fast.pruned_by_memory == reference.pruned_by_memory
        && fast.ranked.len() == reference.ranked.len()
        && fast
            .ranked
            .iter()
            .all(|c| times.get(&c.strategy).is_some_and(|&t| close(c.epoch_time(), t)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn grid_sweep_reproduces_per_query_searches(
        model_a in arb_model(),
        model_b in arb_model(),
        batches in arb_batches(),
        constraints in arb_constraints(),
        chunk in 1usize..400,
    ) {
        let grid_under = |constraints: Constraints| {
            QueryGrid::new(constraints)
                .with_model(model_a.clone(), TrainingConfig::small(8192, 64))
                .with_model(model_b.clone(), TrainingConfig::small(2048, 64))
                .with_batches(batches.clone())
                .with_cluster(ClusterSpec::paper_system())
                .with_cluster(ClusterSpec::workstation(8))
        };
        let grid = grid_under(constraints);
        // One sweep serves every chunked run, so the later runs refill the
        // buffers the earlier ones kept.
        let sweep = GridSweep::new().with_chunk_size(chunk);
        let chunked = sweep.run(&grid);
        let default = GridSweep::new().run(&grid);
        prop_assert!(chunked.len() == grid.num_queries());
        prop_assert!(default.len() == grid.num_queries());
        // Each chunk keeps only its own k best and per-budget winners; the
        // merge of many chunks must still equal the full ranking's prefix.
        if let Some(k) = constraints.top_k {
            let full = sweep.run(&grid_under(Constraints { top_k: None, ..constraints }));
            for (a, f) in chunked.cells.iter().zip(&full.cells) {
                let prefix = &f.report.ranked[..k.min(f.report.ranked.len())];
                prop_assert!(a.report.ranked == prefix, "{:?}: top-{k} is not the prefix", a.query);
                prop_assert!(
                    a.report.best_per_budget == f.report.best_per_budget,
                    "{:?}: budget winners diverged from the full ranking",
                    a.query
                );
            }
        }
        let again = sweep.run(&grid);
        prop_assert!(again.len() == chunked.len());
        for (a, r) in chunked.cells.iter().zip(&again.cells) {
            prop_assert!(a.report == r.report, "{:?}: a repeated sweep diverged", a.query);
        }
        for ((a, d), q) in chunked.cells.iter().zip(&default.cells).zip(grid.queries()) {
            prop_assert!(a.query == q && d.query == q);
            let gm = &grid.models()[q.model];
            let cluster = &grid.clusters()[q.cluster];
            let oracle = Oracle::new(&gm.model, &cluster.device, cluster, gm.config_at(q.batch));
            let per_query = oracle.search(grid.constraints());
            let bytes = |r: &SearchReport| QueryAnswer::Ranked(r.clone()).to_json().render();
            for (name, cell) in [("chunked", a), ("default", d)] {
                prop_assert!(cell.report == per_query, "{q:?}: {name} sweep diverged");
                prop_assert!(bytes(&cell.report) == bytes(&per_query), "{q:?}: {name} bytes");
            }
            if constraints.top_k.is_none() {
                let reference = oracle.search_reference(grid.constraints());
                prop_assert!(
                    agrees_with_reference(&a.report, &reference),
                    "{q:?}: full ranking diverged from the reference search"
                );
            }
        }
    }
}

/// One input of a grid, changed in place: the edits a what-if session makes
/// between two sweeps. Each changes exactly one input a kept column may
/// have been computed from, or only the order of an axis.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Batch,
    ClusterLink,
    ClusterDevice,
    Layer,
    DatasetSize,
    DeltaBits,
    GammaBits,
    ZeroCapacity,
    NegativeZeroCapacity,
    CapacityBits,
    MaxPes,
    PipelineSegments,
    TopK,
    Sweep,
    ReorderModels,
    ReorderBatches,
    ReorderClusters,
}

/// Every edit kind, a block of steps each: a zero capacity is followed by
/// its negative and then a nonzero one, and the top-k edit is made twice,
/// so every other edit meets a top-k sweep under a capacity that admits
/// candidates.
const EDITS: [&[Edit]; 15] = [
    &[Edit::Batch],
    &[Edit::ClusterLink],
    &[Edit::ClusterDevice],
    &[Edit::Layer],
    &[Edit::DatasetSize],
    &[Edit::DeltaBits],
    &[Edit::GammaBits],
    &[Edit::ZeroCapacity, Edit::NegativeZeroCapacity, Edit::CapacityBits],
    &[Edit::MaxPes],
    &[Edit::PipelineSegments],
    &[Edit::TopK, Edit::TopK],
    &[Edit::Sweep],
    &[Edit::ReorderModels],
    &[Edit::ReorderBatches],
    &[Edit::ReorderClusters],
];

/// The next float up from `x`, by one unit in the last place.
fn ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The axes of a grid, edited between sweeps.
#[derive(Clone)]
struct Axes {
    models: Vec<(Model, TrainingConfig)>,
    batches: Vec<usize>,
    clusters: Vec<ClusterSpec>,
    constraints: Constraints,
}

impl Axes {
    fn grid(&self) -> QueryGrid {
        let mut grid = QueryGrid::new(self.constraints).with_batches(self.batches.clone());
        for (model, base) in &self.models {
            grid = grid.with_model(model.clone(), *base);
        }
        for cluster in &self.clusters {
            grid = grid.with_cluster(cluster.clone());
        }
        grid
    }

    /// Applies `edit`; `pick` chooses which model, batch or cluster.
    fn apply(&mut self, edit: Edit, pick: usize) {
        let m = pick % self.models.len();
        let c = pick % self.clusters.len();
        let limits = &mut self.constraints;
        match edit {
            Edit::Batch => {
                let b = pick % self.batches.len();
                self.batches[b] += 1 + pick % 5;
            }
            Edit::ClusterLink => {
                let link = &mut self.clusters[c].inter_rack;
                link.alpha = ulp_up(link.alpha);
            }
            Edit::ClusterDevice => {
                let device = &mut self.clusters[c].device;
                device.peak_flops = ulp_up(device.peak_flops);
            }
            Edit::Layer => {
                let fc = self.models[m].0.layers.last_mut().expect("a model has layers");
                fc.out_channels += 1;
            }
            // A third or three times the samples: every lower bound moves
            // far enough to change what the dominance bounds prune.
            Edit::DatasetSize => {
                let base = &mut self.models[m].1;
                base.dataset_size = if pick.is_multiple_of(2) {
                    base.dataset_size / 3
                } else {
                    base.dataset_size * 3
                };
            }
            Edit::DeltaBits => {
                let base = &mut self.models[m].1;
                base.bytes_per_item = ulp_up(base.bytes_per_item);
            }
            Edit::GammaBits => {
                let base = &mut self.models[m].1;
                base.memory_reuse = f64::from_bits(base.memory_reuse.to_bits() - 1);
            }
            Edit::NegativeZeroCapacity => limits.memory_capacity_bytes = -0.0,
            Edit::ZeroCapacity => limits.memory_capacity_bytes = 0.0,
            Edit::CapacityBits => {
                limits.memory_capacity_bytes = ulp_up(Constraints::default().memory_capacity_bytes)
            }
            Edit::MaxPes => {
                limits.max_pes = if limits.max_pes > 32 { limits.max_pes / 2 } else { 128 }
            }
            Edit::PipelineSegments => limits.pipeline_segments += 1,
            Edit::TopK => limits.top_k = limits.top_k.xor(Some(1 + pick % 8)),
            Edit::Sweep => {
                limits.sweep = match limits.sweep {
                    PeSweep::PowersOfTwo => PeSweep::Exhaustive,
                    PeSweep::Exhaustive => PeSweep::PowersOfTwo,
                }
            }
            Edit::ReorderModels => self.models.reverse(),
            Edit::ReorderBatches => self.batches.rotate_left(1),
            Edit::ReorderClusters => self.clusters.reverse(),
        }
    }
}

/// `a` equals `b` cell for cell: the same coordinates and every report
/// field.
fn same_cells(a: &GridReport, b: &GridReport) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} cells against {}", a.len(), b.len()));
    }
    for (x, y) in a.cells.iter().zip(&b.cells) {
        if x.query != y.query || x.report != y.report {
            return Err(format!("{:?} differs", x.query));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // One sweep value runs a sequence of grids, each one edit away from
    // the last, every edit kind in a seeded order: whatever its kept
    // columns were computed from, every report must equal a fresh sweep's.
    // `run_timed` alternates with `run`, `run_engine` (which sweeps on
    // buffers of its own, or on a cache entry's store) sweeps on the same
    // value in between, and the last grid is swept by two threads at once.
    #[test]
    fn resident_columns_never_serve_a_stale_answer(
        model_a in arb_model(),
        model_b in arb_model(),
        batches in arb_batches(),
        constraints in arb_constraints(),
        chunk in 64usize..400,
        seed in 0u64..u64::MAX,
    ) {
        let mut axes = Axes {
            models: vec![
                (model_a, TrainingConfig::small(8192, 64)),
                (model_b, TrainingConfig::small(2048, 64)),
            ],
            batches,
            clusters: vec![ClusterSpec::paper_system(), ClusterSpec::workstation(8)],
            constraints: Constraints {
                max_pes: constraints.max_pes.min(128),
                top_k: constraints.top_k.or(Some(5)),
                ..constraints
            },
        };
        // The edit kinds in a seeded order, each with a seeded pick.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 29)) as usize
        };
        let mut kinds = EDITS;
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, next() % (i + 1));
        }
        let edits = kinds.iter().flat_map(|block| block.iter().copied());
        let sweep = GridSweep::new().with_chunk_size(chunk);
        let cache = EngineCache::new(8);
        let first = axes.grid();
        let cold = sweep.run(&first);
        let check = same_cells(&cold, &GridSweep::new().with_chunk_size(chunk).run(&first));
        prop_assert!(check.is_ok(), "cold sweep: {check:?}");
        for (step, edit) in edits.enumerate() {
            axes.apply(edit, next());
            let grid = axes.grid();
            let fresh = GridSweep::new().with_chunk_size(chunk).run(&grid);
            let resident =
                if step.is_multiple_of(2) { sweep.run_timed(&grid).0 } else { sweep.run(&grid) };
            let check = same_cells(&resident, &fresh);
            prop_assert!(check.is_ok(), "step {step}, after {edit:?}: {check:?}");
            // Every step also sweeps the grid's first (model, cluster)
            // problem twice on an engine from one cache, with its entry's
            // column store, the way the daemon answers a group: the store
            // keeps a variant from its second group on, so the second sweep
            // of an edited variant takes over the columns the last variant
            // left on the same axis, and must never serve them stale.
            let (gm, cluster) = (&grid.models()[0], &grid.clusters()[0]);
            let model = std::sync::Arc::new(KeyedModel::new(gm.model.clone()));
            let config = gm.config_at(grid.batches()[0]);
            let key = ProblemKey::of(&model, cluster, &config);
            for round in 0..2 {
                let (engine, _, columns) =
                    cache.engine(&key, &model, cluster, config).expect("engine builds");
                let stored =
                    sweep.run_engine(&engine, grid.batches(), grid.constraints(), Some(&columns));
                for cell in &stored.cells {
                    let want = fresh.get(0, cell.query.batch, 0).expect("fresh cell");
                    prop_assert!(
                        cell.report == want.report,
                        "step {step}, after {edit:?}: run_engine on a store (round {round}) at {:?}",
                        want.query
                    );
                }
            }
            // Every third step also sweeps one (model, cluster) problem of
            // the grid on its own engine, at a batch the grid may not ask
            // for, on the same value.
            if step % 3 == 1 {
                let (m, c) = (next() % grid.models().len(), next() % grid.clusters().len());
                let (gm, cluster) = (&grid.models()[m], &grid.clusters()[c]);
                let engine = CostEngine::new(&gm.model, &cluster.device, cluster, gm.config_at(40))
                    .expect("engine builds");
                let swept = sweep.run_engine(&engine, grid.batches(), grid.constraints(), None);
                prop_assert!(swept.len() == grid.batches().len());
                for cell in &swept.cells {
                    let want = fresh.get(m, cell.query.batch, c).expect("fresh cell");
                    prop_assert!(
                        cell.report == want.report,
                        "step {step}, after {edit:?}: run_engine at {:?}",
                        want.query
                    );
                }
                // `run_engine` leaves the kept columns alone: the grid swept
                // again is served from them and must still be exact.
                let check = same_cells(&sweep.run(&grid), &fresh);
                prop_assert!(check.is_ok(), "step {step}, after run_engine: {check:?}");
            }
        }
        // Two threads on one value: one sweeps on the kept columns, the
        // other on fresh buffers.
        let grid = axes.grid();
        let fresh = GridSweep::new().with_chunk_size(chunk).run(&grid);
        let start = std::sync::Barrier::new(2);
        let reports: Vec<GridReport> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        sweep.run(&grid)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("sweep thread")).collect()
        });
        for report in &reports {
            let check = same_cells(report, &fresh);
            prop_assert!(check.is_ok(), "concurrent sweep: {check:?}");
        }
    }
}
