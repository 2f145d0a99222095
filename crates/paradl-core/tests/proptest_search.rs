//! Property-based tests of the exhaustive strategy-search engine: for *any*
//! model, configuration and constraints, every candidate the
//! [`StrategySpace`] enumerates must respect the constraints, and every
//! candidate the search actually costs must fit the memory capacity.

use paradl_core::prelude::*;
use proptest::prelude::{prop_assert, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

/// A small random CNN, mirroring the generator in `proptest_cost_model.rs`.
fn arb_model() -> impl PropStrategy<Value = Model> {
    let spatial = prop_oneof![Just(16usize), Just(32), Just(64)];
    let depth = 1usize..5;
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
    (4usize..10, 1.0f64..64.0, 1usize..5).prop_map(|(log_pes, mem_gib, log_seg)| Constraints {
        max_pes: 1 << log_pes,
        memory_capacity_bytes: mem_gib * 1024.0 * 1024.0 * 1024.0,
        pipeline_segments: 1 << log_seg,
        ..Constraints::default()
    })
}

fn arb_config() -> impl PropStrategy<Value = TrainingConfig> {
    (512usize..8192, 3usize..8).prop_map(|(d, logb)| TrainingConfig::small(d, 1 << logb))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_candidate_respects_constraints(
        model in arb_model(),
        config in arb_config(),
        constraints in arb_constraints(),
    ) {
        let space = StrategySpace::new(&model, config.batch_size, &constraints);
        let extents = model.min_spatial_extents();
        let mut count = 0usize;
        for candidate in space {
            prop_assert!(
                candidate.total_pes() <= constraints.max_pes,
                "{candidate} uses more PEs than max_pes={}", constraints.max_pes
            );
            prop_assert!(
                candidate.validate(&model, config.batch_size).is_ok(),
                "{candidate} violates a scaling limit"
            );
            if let Strategy::Spatial { split } | Strategy::DataSpatial { split, .. } = candidate {
                let cap = |dim: usize| extents.get(dim).copied().unwrap_or(1).max(1);
                prop_assert!(
                    split.pw <= cap(0) && split.ph <= cap(1) && split.pd <= cap(2),
                    "{candidate} splits a dimension beyond its extent {extents:?}"
                );
            }
            count += 1;
        }
        // Serial always qualifies, so the space is never empty.
        prop_assert!(count >= 1);
    }

    #[test]
    fn costed_candidates_fit_memory_and_pruning_adds_up(
        model in arb_model(),
        config in arb_config(),
        constraints in arb_constraints(),
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let oracle = Oracle::new(&model, &device, &cluster, config);
        let report = oracle.search(&constraints);
        prop_assert!(report.enumerated == report.pruned_by_memory + report.ranked.len());
        for candidate in &report.ranked {
            prop_assert!(
                candidate.projection.cost.memory_per_pe_bytes
                    <= constraints.memory_capacity_bytes,
                "{} was costed but exceeds the memory capacity", candidate.strategy
            );
            prop_assert!(candidate.epoch_time().is_finite());
            prop_assert!(candidate.epoch_time() >= 0.0);
        }
    }

    #[test]
    fn top_k_pruning_never_drops_the_true_winners(
        model in arb_model(),
        config in arb_config(),
        constraints in arb_constraints(),
        k in 1usize..8,
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let oracle = Oracle::new(&model, &device, &cluster, config);
        let full = oracle.search(&constraints);
        let pruned_constraints = Constraints { top_k: Some(k), ..constraints };
        let pruned = oracle.search(&pruned_constraints);
        let reference = oracle.search_reference(&pruned_constraints);
        // The bounded-heap ranking is exactly the prefix of the full ranking.
        prop_assert!(pruned.ranked.len() == k.min(full.ranked.len()));
        for (a, b) in pruned.ranked.iter().zip(&full.ranked) {
            prop_assert!(a.strategy == b.strategy, "{} != {}", a.strategy, b.strategy);
            prop_assert!(a.projection == b.projection);
        }
        // Budget winners are unaffected by pruning.
        prop_assert!(pruned.best_per_budget.len() == full.best_per_budget.len());
        for (a, b) in pruned.best_per_budget.iter().zip(&full.best_per_budget) {
            prop_assert!(a.max_pes == b.max_pes);
            prop_assert!(a.candidate.strategy == b.candidate.strategy);
        }
        // The pruned search keeps the per-layer reference's winners: the
        // same strategies, costed the same up to 1e-9 relative (matched by
        // strategy, since reassociation may swap near-ties).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.max(b);
        let times: std::collections::HashMap<Strategy, f64> =
            reference.ranked.iter().map(|c| (c.strategy, c.epoch_time())).collect();
        prop_assert!(pruned.ranked.len() == k.min(reference.ranked.len()));
        for (a, b) in pruned.ranked.iter().zip(&reference.ranked) {
            let t = times.get(&a.strategy).copied();
            prop_assert!(t.is_some_and(|t| close(a.epoch_time(), t)), "{} vs reference", a.strategy);
            prop_assert!(close(a.epoch_time(), b.epoch_time()));
        }
        // Accounting adds up (memory + dynamic bound + static dominance).
        prop_assert!(pruned.evaluated() + pruned.pruned() == pruned.enumerated);
    }

    #[test]
    fn exhaustive_sweep_contains_the_pow2_space(
        model in arb_model(),
        config in arb_config(),
        constraints in arb_constraints(),
    ) {
        use paradl_core::oracle::PeSweep;
        // Keep the dense space small enough for a property test.
        let constraints = Constraints { max_pes: constraints.max_pes.min(64), ..constraints };
        let dense_constraints = Constraints { sweep: PeSweep::Exhaustive, ..constraints };
        let pow2: Vec<Strategy> =
            StrategySpace::new(&model, config.batch_size, &constraints).collect();
        let dense: std::collections::HashSet<Strategy> =
            StrategySpace::new(&model, config.batch_size, &dense_constraints).collect();
        prop_assert!(dense.len() >= pow2.len());
        for s in pow2 {
            prop_assert!(dense.contains(&s), "{s} missing from the exhaustive space");
        }
    }

    #[test]
    fn ranking_is_sorted_and_budget_winners_feasible(
        model in arb_model(),
        config in arb_config(),
        constraints in arb_constraints(),
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let oracle = Oracle::new(&model, &device, &cluster, config);
        let report = oracle.search(&constraints);
        for pair in report.ranked.windows(2) {
            prop_assert!(pair[0].epoch_time() <= pair[1].epoch_time());
        }
        for winner in &report.best_per_budget {
            prop_assert!(winner.candidate.strategy.total_pes() <= winner.max_pes);
            prop_assert!(winner.max_pes <= constraints.max_pes);
        }
    }
}
