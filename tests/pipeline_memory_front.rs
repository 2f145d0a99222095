//! The engine keeps only each pipeline depth's Pareto-maximal stage memory
//! parts (`CostEngine::pipeline_memory_front`). This test checks, for every
//! depth of the four paper models, that the stored front is exactly the
//! Pareto-maximal set of the balanced stages' `(activation, static)` pairs,
//! and that the pipeline's per-PE memory has the same bits as a brute-force
//! maximum over *every* stage of `Model::balanced_pipeline_groups(p)`,
//! priced with the engine's own expression `γδ · max(2·B·act + static)`.

use paradl::prelude::*;

/// The batches checked: the smallest, two paper-scale ones, and one far
/// past any dataset, where `2·B·act` dwarfs the static part.
const BATCHES: [usize; 4] = [1, 64, 1536, 1 << 40];

/// Each balanced stage's `(Σ(|x|+|y|), Σ(2|w|+|bi|))` element pair. The
/// sums are integers below 2^53, so they are exact in `f64` whatever order
/// the engine adds them in.
fn stage_parts(model: &Model, p: usize) -> Vec<(f64, f64)> {
    model
        .balanced_pipeline_groups(p)
        .into_iter()
        .map(|range| {
            let layers = &model.layers[range];
            let act: u64 = layers.iter().map(|l| (l.input_size() + l.output_size()) as u64).sum();
            let stat: u64 =
                layers.iter().map(|l| (2 * l.weight_count() + l.bias_count()) as u64).sum();
            assert!(act.max(stat) < 1 << 53, "{}: stage sums exceed f64's integers", model.name);
            (act as f64, stat as f64)
        })
        .collect()
}

/// The pairs no other pair is at least as large as in both fields (one of
/// each set of equal pairs), ascending in the activation part.
fn pareto_maximal(parts: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut front: Vec<(f64, f64)> = parts
        .iter()
        .copied()
        .filter(|&(a, s)| !parts.iter().any(|&(a2, s2)| a2 >= a && s2 >= s && (a2, s2) != (a, s)))
        .collect();
    front.sort_by(|x, y| x.0.total_cmp(&y.0));
    front.dedup();
    front
}

#[test]
fn pipeline_fronts_are_pareto_maximal_and_change_no_memory_bit() {
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    for model in paradl::models::paper_models() {
        let config = TrainingConfig::imagenet(256);
        let engine = CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        let gamma_delta = config.memory_reuse * config.bytes_per_item;
        for p in 1..=model.num_layers() {
            let parts = stage_parts(&model, p);
            assert_eq!(
                engine.pipeline_memory_front(p),
                pareto_maximal(&parts).as_slice(),
                "{} depth {p}",
                model.name
            );
            for batch in BATCHES {
                let b = batch as f64;
                let raw = parts.iter().fold(0.0f64, |m, &(act, stat)| m.max(2.0 * b * act + stat));
                let s = Strategy::Pipeline { p, segments: 1 };
                assert_eq!(
                    engine.rebatched(batch).memory_per_pe(s).to_bits(),
                    (gamma_delta * raw).to_bits(),
                    "{} depth {p} batch {batch}",
                    model.name
                );
            }
        }
    }
}
