//! The engine keeps only each pipeline depth's Pareto-maximal stage memory
//! parts (`CostEngine::pipeline_memory_front`). This test checks, for every
//! depth of the four paper models, that the stored front is exactly the
//! Pareto-maximal set of the balanced stages' `(activation, static)` pairs,
//! and that the pipeline's per-PE memory has the same bits as a brute-force
//! maximum over *every* stage of `Model::balanced_pipeline_groups(p)`,
//! priced with the engine's own expression `γδ · max(2·B·act + static)`.
//!
//! A core fills each depth the first time it is read, so this file also
//! checks that neither the fill order, nor the threads that fill, nor
//! hydrating an engine from a half-filled core changes any pipeline bit.

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

/// Every pipeline bit `engine` prices at `batch`: for each depth, the
/// memory, bound and estimate phases of a 1- and a 4-segment pipeline, and
/// the stored memory front.
fn pipeline_bits(engine: &CostEngine<'_>, batch: usize) -> Vec<u64> {
    let e = engine.rebatched(batch);
    let mut bits = Vec::new();
    for p in 1..=e.model().num_layers() {
        for segments in [1, 4] {
            let s = Strategy::Pipeline { p, segments };
            let est = e.estimate(s);
            let ph = est.per_epoch;
            bits.extend(
                [
                    e.memory_per_pe(s),
                    e.lower_bound(s),
                    est.memory_per_pe_bytes,
                    ph.forward_backward,
                    ph.weight_update,
                    ph.gradient_exchange,
                    ph.fb_collective,
                    ph.halo_exchange,
                    ph.pipeline_p2p,
                ]
                .map(f64::to_bits),
            );
        }
        bits.extend(e.pipeline_memory_front(p).iter().flat_map(|&(a, s)| [a, s].map(f64::to_bits)));
    }
    bits
}

/// The depths `1..=g` in a seeded random order (Fisher–Yates driven by
/// SplitMix64).
fn shuffled_depths(g: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut depths: Vec<usize> = (1..=g).collect();
    for i in (1..g).rev() {
        depths.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    depths
}

/// Reads depth `p` through one of the engine's four depth readers.
fn read_depth(engine: &CostEngine<'_>, p: usize, reader: usize) {
    let s = Strategy::Pipeline { p, segments: 2 };
    match reader % 4 {
        0 => _ = engine.memory_per_pe(s),
        1 => _ = engine.lower_bound(s),
        2 => _ = engine.estimate(s),
        _ => _ = engine.pipeline_memory_front(p),
    }
}

#[test]
fn depth_fill_order_and_threads_change_no_bit() {
    let device = DeviceProfile::v100();
    let cluster = ClusterSpec::paper_system();
    let config = TrainingConfig::imagenet(256);
    for model in paradl::models::paper_models() {
        let g = model.num_layers();
        let build = || CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        let ascending = build();
        for p in 1..=g {
            read_depth(&ascending, p, p);
        }
        let shuffled = build();
        for (i, p) in shuffled_depths(g, 0x5eed).into_iter().enumerate() {
            read_depth(&shuffled, p, i);
        }
        // Four threads fill one core at once, each in its own order; the
        // barrier releases them together.
        let threaded = build();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (engine, start) = (&threaded, &start);
                scope.spawn(move || {
                    start.wait();
                    for p in shuffled_depths(g, t as u64) {
                        read_depth(engine, p, t);
                    }
                });
            }
        });
        // A core with every other depth filled, hydrated at another batch.
        let half = build();
        for p in (1..=g).step_by(2) {
            read_depth(&half, p, p);
        }
        let hydrated = CostEngine::from_core(
            &model,
            &cluster,
            TrainingConfig::imagenet(64),
            half.core_handle(),
        )
        .expect("hydration succeeds");
        for batch in BATCHES {
            let want = pipeline_bits(&ascending, batch);
            for (order, engine) in
                [("shuffled", &shuffled), ("threaded", &threaded), ("hydrated", &hydrated)]
            {
                assert!(
                    pipeline_bits(engine, batch) == want,
                    "{} {order} batch {batch}",
                    model.name
                );
            }
        }
    }
}
