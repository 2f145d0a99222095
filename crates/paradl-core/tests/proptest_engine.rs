//! Property-based equivalence tests of the precomputed [`CostEngine`]
//! against the reference per-layer cost/memory model: for *any* random CNN,
//! configuration and candidate strategy, the engine must reproduce
//! `estimate` / `memory_per_pe` (to floating-point
//! reassociation tolerance), its compute-only lower bound must be
//! admissible, its per-PE memory must not shrink as the batch grows, its
//! pipeline memory fronts must be exactly the Pareto-maximal stage parts
//! with the same memory bits as a maximum over every stage, no depth's
//! bits may depend on the order or the threads that fill it, and the
//! branch-and-bound pruned search must never drop the true optimum.

use paradl_core::cost::{estimate, estimate_with_memory};
use paradl_core::prelude::*;
use proptest::prelude::{prop_assert, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

/// A small random CNN, mirroring the generator in `proptest_search.rs`.
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

fn arb_config() -> impl PropStrategy<Value = TrainingConfig> {
    (512usize..8192, 3usize..8).prop_map(|(d, logb)| TrainingConfig::small(d, 1 << logb))
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
}

/// Candidate strategies to compare: the whole (power-of-two) strategy space
/// of the model, which covers every strategy kind incl. all spatial
/// factorizations, capped for test runtime.
fn sample_candidates(model: &Model, batch: usize) -> Vec<Strategy> {
    let constraints = Constraints { max_pes: 256, ..Constraints::default() };
    StrategySpace::new(model, batch, &constraints).take(400).collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn depth_fill_order_and_threads_change_no_bit(
        model in arb_model(),
        config in arb_config(),
        seed in 0u64..u64::MAX,
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let g = model.num_layers();
        let build = || CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        let ascending = build();
        for p in 1..=g {
            read_depth(&ascending, p, p);
        }
        let shuffled = build();
        for (i, p) in shuffled_depths(g, seed).into_iter().enumerate() {
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
                    for p in shuffled_depths(g, seed ^ t as u64) {
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
        let other = TrainingConfig { batch_size: config.batch_size * 2, ..config };
        let hydrated = CostEngine::from_core(&model, &cluster, other, half.core_handle())
            .expect("hydration succeeds");
        for batch in [1usize, 64, 1536, 1 << 40] {
            let want = pipeline_bits(&ascending, batch);
            for (order, engine) in
                [("shuffled", &shuffled), ("threaded", &threaded), ("hydrated", &hydrated)]
            {
                prop_assert!(pipeline_bits(engine, batch) == want, "{order} batch {batch}");
            }
        }
    }

    #[test]
    fn engine_matches_reference_for_every_candidate(
        model in arb_model(),
        config in arb_config(),
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let engine = CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        for s in sample_candidates(&model, config.batch_size) {
            let fast = engine.estimate(s);
            let slow = estimate(&model, &device, &cluster, &config, s);
            prop_assert!(fast.iterations == slow.iterations);
            for (name, a, b) in [
                ("fw/bw", fast.per_epoch.forward_backward, slow.per_epoch.forward_backward),
                ("wu", fast.per_epoch.weight_update, slow.per_epoch.weight_update),
                ("ge", fast.per_epoch.gradient_exchange, slow.per_epoch.gradient_exchange),
                ("fb-coll", fast.per_epoch.fb_collective, slow.per_epoch.fb_collective),
                ("halo", fast.per_epoch.halo_exchange, slow.per_epoch.halo_exchange),
                ("p2p", fast.per_epoch.pipeline_p2p, slow.per_epoch.pipeline_p2p),
            ] {
                prop_assert!(rel_close(a, b), "{s}: {name} engine={a} reference={b}");
            }
            let (ma, mb) = (engine.memory_per_pe(s), memory_per_pe(&model, &config, s));
            prop_assert!(rel_close(ma, mb), "{s}: memory engine={ma} reference={mb}");
            // The reference's reusable-memory variant matches too.
            let slow_reused =
                estimate_with_memory(&model, &device, &cluster, &config, s, mb);
            prop_assert!(slow_reused.per_epoch == slow.per_epoch);
        }
    }

    #[test]
    fn rebatch_matches_fresh_engine(
        model in arb_model(),
        config in arb_config(),
        log_batch in 3usize..9,
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let base = CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        // Power-of-two and non-power-of-two target batches, both directions
        // (shrinking and growing relative to the base batch).
        for batch in [1usize << log_batch, (1 << log_batch) + 3] {
            let fresh = CostEngine::new(
                &model,
                &device,
                &cluster,
                TrainingConfig { batch_size: batch, ..config },
            )
            .expect("engine builds");
            let rebatched = base.rebatched(batch);
            prop_assert!(rebatched.config() == fresh.config());
            for s in sample_candidates(&model, batch) {
                // Byte-for-byte: rebatch re-runs the exact arithmetic of a
                // fresh build over shared tables (well inside the pinned
                // 1e-9 tolerance).
                let (a, b) = (rebatched.estimate(s), fresh.estimate(s));
                prop_assert!(a == b, "{s}: rebatched {a:?} != fresh {b:?} at B={batch}");
                let (ma, mb) = (rebatched.memory_per_pe(s), fresh.memory_per_pe(s));
                prop_assert!(ma == mb, "{s}: memory {ma} != {mb} at B={batch}");
                prop_assert!(rebatched.lower_bound(s) == fresh.lower_bound(s), "{s} bound");
            }
        }
        // In-place round trip returns to the base engine's answers.
        let mut roundtrip = base.clone();
        roundtrip.rebatch(1 << log_batch);
        roundtrip.rebatch(config.batch_size);
        for s in sample_candidates(&model, config.batch_size).into_iter().take(50) {
            prop_assert!(roundtrip.estimate(s) == base.estimate(s), "{s}: round trip drifted");
        }
    }

    #[test]
    fn lower_bound_is_admissible(
        model in arb_model(),
        config in arb_config(),
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let engine = CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        for s in sample_candidates(&model, config.batch_size) {
            let lb = engine.lower_bound(s);
            let total = engine.estimate(s).epoch_time();
            prop_assert!(lb <= total, "{s}: lower bound {lb} exceeds total {total}");
            prop_assert!(lb >= 0.0 && lb.is_finite());
        }
    }

    #[test]
    fn memory_is_nondecreasing_in_the_batch(
        model in arb_model(),
        config in arb_config(),
        batch in 1usize..512,
        gap in 1usize..512,
    ) {
        // The grid's prep pass skips a candidate's memory at every batch
        // above one where it did not fit; that is exact only while no
        // family's per-PE memory (pipelines included) shrinks as the batch
        // grows.
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let base = CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        let (small, large) = (base.rebatched(batch), base.rebatched(batch + gap));
        for s in sample_candidates(&model, batch) {
            let (a, b) = (small.memory_per_pe(s), large.memory_per_pe(s));
            prop_assert!(a <= b, "{s}: memory {a} at B={batch} > {b} at B={}", batch + gap);
        }
    }

    #[test]
    fn pipeline_fronts_are_pareto_maximal_and_change_no_memory_bit(
        model in arb_model(),
        config in arb_config(),
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let engine = CostEngine::new(&model, &device, &cluster, config).expect("engine builds");
        let gamma_delta = config.memory_reuse * config.bytes_per_item;
        for p in 1..=model.num_layers() {
            // Each balanced stage's `(Σ(|x|+|y|), Σ(2|w|+|bi|))` pair; the
            // sums are small integers, so exact in any order.
            let parts: Vec<(f64, f64)> = model
                .balanced_pipeline_groups(p)
                .into_iter()
                .map(|range| {
                    let layers = &model.layers[range];
                    let act: usize = layers.iter().map(|l| l.input_size() + l.output_size()).sum();
                    let stat: usize =
                        layers.iter().map(|l| 2 * l.weight_count() + l.bias_count()).sum();
                    (act as f64, stat as f64)
                })
                .collect();
            let mut front: Vec<(f64, f64)> = parts
                .iter()
                .copied()
                .filter(|&x| !parts.iter().any(|&y| y.0 >= x.0 && y.1 >= x.1 && y != x))
                .collect();
            front.sort_by(|x, y| x.0.total_cmp(&y.0));
            front.dedup();
            prop_assert!(engine.pipeline_memory_front(p) == front.as_slice(), "depth {p}");
            for batch in [1usize, config.batch_size, 1536, 1 << 40] {
                let b = batch as f64;
                let raw = parts.iter().fold(0.0f64, |m, &(act, stat)| m.max(2.0 * b * act + stat));
                let s = Strategy::Pipeline { p, segments: 1 };
                let mem = engine.rebatched(batch).memory_per_pe(s);
                prop_assert!(mem.to_bits() == (gamma_delta * raw).to_bits(), "depth {p} B={batch}");
            }
        }
    }

    #[test]
    fn pruned_search_finds_the_reference_optimum(
        model in arb_model(),
        config in arb_config(),
    ) {
        let device = DeviceProfile::v100();
        let cluster = ClusterSpec::paper_system();
        let oracle = Oracle::new(&model, &device, &cluster, config);
        let constraints = Constraints { max_pes: 256, ..Constraints::default() };
        let reference = oracle.search_reference(&constraints);
        let pruned = oracle.search(&Constraints { top_k: Some(1), ..constraints });
        match (reference.best(), pruned.best()) {
            (Some(a), Some(b)) => {
                let (ta, tb) = (a.epoch_time(), b.epoch_time());
                prop_assert!(
                    rel_close(ta, tb),
                    "pruned optimum {} ({tb}) diverged from reference {} ({ta})",
                    b.strategy, a.strategy
                );
            }
            (None, None) => {}
            (a, b) => prop_assert!(false, "feasibility disagreement: {a:?} vs {b:?}"),
        }
        prop_assert!(reference.pruned_by_memory == pruned.pruned_by_memory);
    }
}
