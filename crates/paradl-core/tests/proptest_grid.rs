//! Property-based equivalence tests of the amortized [`GridSweep`] against
//! per-query [`Oracle::search`] calls on fresh oracles: for *any* random
//! grid of CNNs, batch axes, clusters and constraints (with and without
//! top-k pruning, powers-of-two and exhaustive PE sweeps) and any chunk
//! size, every cell of the sweep must reproduce the per-query search byte
//! for byte — same counts, same ranking, same per-budget winners, same
//! serialized answer. Full-ranking cells are also checked against the
//! per-layer [`Oracle::search_reference`], up to floating-point
//! reassociation, and top-k cells against a full-ranking sweep at the same
//! chunk size.

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
        let chunked = GridSweep::new().with_chunk_size(chunk).run(&grid);
        let default = GridSweep::new().run(&grid);
        prop_assert!(chunked.len() == grid.num_queries());
        prop_assert!(default.len() == grid.num_queries());
        // Each chunk keeps only its own k best and per-budget winners; the
        // merge of many chunks must still equal the full ranking's prefix.
        if let Some(k) = constraints.top_k {
            let full = GridSweep::new()
                .with_chunk_size(chunk)
                .run(&grid_under(Constraints { top_k: None, ..constraints }));
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
